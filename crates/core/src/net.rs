//! Network-facing serving front-end: a dependency-free framed TCP
//! protocol over the sharded [`Server`](crate::serve::Server).
//!
//! The wire format mirrors the GHDC checkpoint discipline: explicit
//! little-endian layout, a version byte gating every parse, and a CRC32
//! trailer over the whole body so a torn or bit-flipped frame is a typed
//! error, never a mis-parse. Every frame is length-prefixed:
//!
//! ```text
//! offset  size  field
//! 0       4     body length N (u32 LE) — all bytes after this prefix
//! 4       4     magic "GNET"
//! 8       1     protocol version (1)
//! 9       1     opcode
//! 10      1     status code (NetStatus; 0 in requests)
//! 11      1     reserved (must be 0)
//! 12      8     request id (u64 LE, echoed in the response)
//! 20      8     deadline µs (requests; 0 = none) / elapsed µs (answers)
//! 28      2     tenant length T (u16 LE; only Infer may be non-zero)
//! 30      T     tenant id (UTF-8)
//! 30+T    P     payload (opcode-specific, see below)
//! 4+N-4   4     CRC32 (u32 LE) over body bytes [magic .. payload]
//! ```
//!
//! Payloads: `Infer` is `n: u32` then `n` f64 features; `Learn` is
//! `label: u64`, `n: u32`, then `n` f64 features; `Answer` is
//! `label: u64, dims: u32, tier: u32, shard: u32, degraded: u8`;
//! `Refusal` is `len: u16` then a UTF-8 detail string; `Ping`,
//! `Accepted`, and `Goodbye` carry no payload.
//!
//! [`NetFrontend`] accepts connections on a [`TcpListener`], decodes
//! frames into admission-checked requests against a [`ServerHandle`]
//! (including tenant routing through the server's
//! [`ModelRegistry`](crate::registry::ModelRegistry)), and streams
//! responses back with a per-request [`NetStatus`] for every shed,
//! deadline, quarantine, and drain outcome. Requests pipeline: each
//! connection has a reader (decode + admit) and a writer (redeem tickets
//! in request order, write responses), so one slow or stalled client
//! only ever stalls itself. A malformed frame drops that connection —
//! after a best-effort [`NetStatus::Malformed`] refusal — without
//! touching the shards, and graceful shutdown ends every connection
//! with a final [`Frame::Goodbye`] status frame.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::io::crc32;
use crate::serve::{ServeError, ServerHandle, SubmitError, Ticket};

/// Wire magic opening every frame body.
pub const FRAME_MAGIC: [u8; 4] = *b"GNET";

/// Protocol version this build speaks; every other version is refused
/// with [`FrameError::UnsupportedVersion`].
pub const PROTOCOL_VERSION: u8 = 1;

/// Largest accepted body length. A length prefix beyond this is
/// [`FrameError::Oversized`] before any allocation happens.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Fixed header bytes between the magic and the tenant id.
const BODY_FIXED: usize = 26;

/// Smallest legal body: fixed header plus the CRC trailer.
const MIN_BODY: usize = BODY_FIXED + 4;

// ---------------------------------------------------------------------------
// Status codes
// ---------------------------------------------------------------------------

/// Per-request outcome carried in byte 10 of every frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetStatus {
    /// The request was answered (or, in a request frame, no status).
    Ok,
    /// Backpressure: the bounded work queue refused admission.
    QueueFull,
    /// Shed at admission: the deadline was hopeless even degraded.
    Shed,
    /// The request failed sanitization (or the frame was malformed).
    Malformed,
    /// Every worker shard is circuit-broken.
    Unavailable,
    /// The server is draining and admits no new work.
    ShuttingDown,
    /// The tenant is unknown, quarantined, or over budget.
    TenantUnavailable,
    /// The request was admitted but canceled before scoring.
    Canceled,
    /// A learn or ping request was accepted (no answer payload).
    Accepted,
}

impl NetStatus {
    fn from_u8(byte: u8) -> Option<NetStatus> {
        Some(match byte {
            0 => NetStatus::Ok,
            1 => NetStatus::QueueFull,
            2 => NetStatus::Shed,
            3 => NetStatus::Malformed,
            4 => NetStatus::Unavailable,
            5 => NetStatus::ShuttingDown,
            6 => NetStatus::TenantUnavailable,
            7 => NetStatus::Canceled,
            8 => NetStatus::Accepted,
            _ => return None,
        })
    }

    fn as_u8(self) -> u8 {
        match self {
            NetStatus::Ok => 0,
            NetStatus::QueueFull => 1,
            NetStatus::Shed => 2,
            NetStatus::Malformed => 3,
            NetStatus::Unavailable => 4,
            NetStatus::ShuttingDown => 5,
            NetStatus::TenantUnavailable => 6,
            NetStatus::Canceled => 7,
            NetStatus::Accepted => 8,
        }
    }

    /// Stable lowercase name used in logs and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            NetStatus::Ok => "ok",
            NetStatus::QueueFull => "queue_full",
            NetStatus::Shed => "shed",
            NetStatus::Malformed => "malformed",
            NetStatus::Unavailable => "unavailable",
            NetStatus::ShuttingDown => "shutting_down",
            NetStatus::TenantUnavailable => "tenant_unavailable",
            NetStatus::Canceled => "canceled",
            NetStatus::Accepted => "accepted",
        }
    }

    /// The wire status an admission refusal maps to.
    pub fn from_submit_error(error: &SubmitError) -> NetStatus {
        match error {
            SubmitError::QueueFull => NetStatus::QueueFull,
            SubmitError::DeadlineHopeless { .. } => NetStatus::Shed,
            SubmitError::Rejected(_) => NetStatus::Malformed,
            SubmitError::Unavailable => NetStatus::Unavailable,
            SubmitError::ShuttingDown => NetStatus::ShuttingDown,
            SubmitError::TenantUnavailable { .. } => NetStatus::TenantUnavailable,
        }
    }

    /// The wire status a post-admission failure maps to.
    pub fn from_serve_error(error: &ServeError) -> NetStatus {
        match error {
            ServeError::Rejected(_) => NetStatus::Malformed,
            ServeError::Canceled => NetStatus::Canceled,
        }
    }
}

impl fmt::Display for NetStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

const OP_INFER: u8 = 0x01;
const OP_LEARN: u8 = 0x02;
const OP_PING: u8 = 0x03;
const OP_ANSWER: u8 = 0x81;
const OP_ACCEPTED: u8 = 0x82;
const OP_REFUSAL: u8 = 0x83;
const OP_GOODBYE: u8 = 0x84;

/// One protocol frame, either direction. [`encode`](Frame::encode) and
/// [`decode`](Frame::decode) round-trip byte-exactly: the encoding is
/// canonical (reserved bytes zero, unused header slots zero), so there
/// is exactly one wire image per frame value.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: score one feature vector.
    Infer {
        /// Correlation id echoed in the response.
        request_id: u64,
        /// Latency budget in µs (0 = none).
        deadline_us: u64,
        /// Tenant to route to (`None` = the shared writer model).
        tenant: Option<String>,
        /// Raw features, exactly the encoder's width.
        features: Vec<f64>,
    },
    /// Client → server: fold one labeled sample into the writer model.
    Learn {
        /// Correlation id echoed in the response.
        request_id: u64,
        /// Class label.
        label: u64,
        /// Raw features.
        features: Vec<f64>,
    },
    /// Client → server: liveness probe, answered with
    /// [`Frame::Accepted`].
    Ping {
        /// Correlation id echoed in the response.
        request_id: u64,
    },
    /// Server → client: a scored answer ([`NetStatus::Ok`]).
    Answer {
        /// Correlation id of the request this answers.
        request_id: u64,
        /// Admission-to-answer latency in µs.
        elapsed_us: u64,
        /// Predicted class.
        label: u64,
        /// Dimensions actually scored.
        dims_used: u32,
        /// Degradation-ladder tier that served the request.
        tier: u32,
        /// Worker shard that scored the request.
        shard: u32,
        /// Served below full dimensionality.
        degraded: bool,
    },
    /// Server → client: a learn/ping request was accepted
    /// ([`NetStatus::Accepted`]).
    Accepted {
        /// Correlation id of the accepted request.
        request_id: u64,
    },
    /// Server → client: the request was refused or lost; `status` says
    /// why (shed, backpressure, quarantine, drain, …).
    Refusal {
        /// Correlation id of the refused request (0 when the refusal is
        /// connection-level, e.g. a malformed frame).
        request_id: u64,
        /// Why the request was refused.
        status: NetStatus,
        /// Human-readable detail.
        detail: String,
    },
    /// Server → client: final status frame of a graceful drain; the
    /// socket closes right after.
    Goodbye,
}

/// Why a byte sequence is not a valid frame. Decoding never panics and
/// never reads past the declared length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the declared (or minimum) length.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes present.
        got: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared body length.
        len: u32,
    },
    /// The length prefix is smaller than the fixed header + trailer.
    Undersized {
        /// The declared body length.
        len: u32,
    },
    /// Bytes remain after the declared frame end.
    TrailingBytes {
        /// Extra byte count.
        extra: usize,
    },
    /// The body does not open with [`FRAME_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        got: [u8; 4],
    },
    /// The version byte is not [`PROTOCOL_VERSION`].
    UnsupportedVersion {
        /// The version found.
        got: u8,
    },
    /// The CRC32 trailer does not match the body.
    ChecksumMismatch {
        /// The trailer's claim.
        stored: u32,
        /// The CRC of the received body.
        computed: u32,
    },
    /// The opcode byte names no known frame kind.
    UnknownOpcode {
        /// The opcode found.
        got: u8,
    },
    /// The status byte names no known [`NetStatus`].
    UnknownStatus {
        /// The status found.
        got: u8,
    },
    /// The tenant bytes are not UTF-8.
    BadTenant,
    /// The payload violates the opcode's layout.
    BadPayload {
        /// What was wrong.
        detail: &'static str,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, have {got}")
            }
            FrameError::Oversized { len } => {
                write!(f, "declared body of {len} bytes exceeds {MAX_FRAME_LEN}")
            }
            FrameError::Undersized { len } => {
                write!(
                    f,
                    "declared body of {len} bytes is below the {MIN_BODY}-byte minimum"
                )
            }
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} bytes remain after the declared frame end")
            }
            FrameError::BadMagic { got } => write!(f, "bad magic {got:02x?}"),
            FrameError::UnsupportedVersion { got } => {
                write!(
                    f,
                    "unsupported protocol version {got} (speaking {PROTOCOL_VERSION})"
                )
            }
            FrameError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            FrameError::UnknownOpcode { got } => write!(f, "unknown opcode {got:#04x}"),
            FrameError::UnknownStatus { got } => write!(f, "unknown status code {got}"),
            FrameError::BadTenant => write!(f, "tenant id is not UTF-8"),
            FrameError::BadPayload { detail } => write!(f, "bad payload: {detail}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Bounds-checked reader over a payload slice; all reads are typed
/// errors, never panics or over-reads.
struct Cursor<'a> {
    bytes: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.bytes.len() < n {
            return Err(FrameError::BadPayload {
                detail: "payload shorter than its own layout claims",
            });
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Ok(head)
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    fn features(&mut self) -> Result<Vec<f64>, FrameError> {
        let n = self.u32()? as usize;
        let byte_len = n.checked_mul(8).ok_or(FrameError::BadPayload {
            detail: "feature count overflows",
        })?;
        let raw = self.take(byte_len)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| {
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                f64::from_le_bytes(b)
            })
            .collect())
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.bytes.is_empty() {
            Ok(())
        } else {
            Err(FrameError::BadPayload {
                detail: "trailing payload bytes",
            })
        }
    }
}

impl Frame {
    fn opcode(&self) -> u8 {
        match self {
            Frame::Infer { .. } => OP_INFER,
            Frame::Learn { .. } => OP_LEARN,
            Frame::Ping { .. } => OP_PING,
            Frame::Answer { .. } => OP_ANSWER,
            Frame::Accepted { .. } => OP_ACCEPTED,
            Frame::Refusal { .. } => OP_REFUSAL,
            Frame::Goodbye => OP_GOODBYE,
        }
    }

    fn status(&self) -> NetStatus {
        match self {
            Frame::Infer { .. } | Frame::Learn { .. } | Frame::Ping { .. } => NetStatus::Ok,
            Frame::Answer { .. } => NetStatus::Ok,
            Frame::Accepted { .. } => NetStatus::Accepted,
            Frame::Refusal { status, .. } => *status,
            Frame::Goodbye => NetStatus::ShuttingDown,
        }
    }

    fn request_id(&self) -> u64 {
        match self {
            Frame::Infer { request_id, .. }
            | Frame::Learn { request_id, .. }
            | Frame::Ping { request_id }
            | Frame::Answer { request_id, .. }
            | Frame::Accepted { request_id }
            | Frame::Refusal { request_id, .. } => *request_id,
            Frame::Goodbye => 0,
        }
    }

    /// The deadline/elapsed header slot (zero where unused).
    fn time_slot(&self) -> u64 {
        match self {
            Frame::Infer { deadline_us, .. } => *deadline_us,
            Frame::Answer { elapsed_us, .. } => *elapsed_us,
            _ => 0,
        }
    }

    /// Serializes to the canonical wire image, length prefix included.
    pub fn encode(&self) -> Vec<u8> {
        let tenant: &str = match self {
            Frame::Infer {
                tenant: Some(t), ..
            } => t.as_str(),
            _ => "",
        };
        let mut body = Vec::with_capacity(64);
        body.extend_from_slice(&FRAME_MAGIC);
        body.push(PROTOCOL_VERSION);
        body.push(self.opcode());
        body.push(self.status().as_u8());
        body.push(0); // reserved
        body.extend_from_slice(&self.request_id().to_le_bytes());
        body.extend_from_slice(&self.time_slot().to_le_bytes());
        body.extend_from_slice(&(tenant.len() as u16).to_le_bytes());
        body.extend_from_slice(tenant.as_bytes());
        match self {
            Frame::Infer { features, .. } => {
                body.extend_from_slice(&(features.len() as u32).to_le_bytes());
                for v in features {
                    body.extend_from_slice(&v.to_le_bytes());
                }
            }
            Frame::Learn {
                label, features, ..
            } => {
                body.extend_from_slice(&label.to_le_bytes());
                body.extend_from_slice(&(features.len() as u32).to_le_bytes());
                for v in features {
                    body.extend_from_slice(&v.to_le_bytes());
                }
            }
            Frame::Answer {
                label,
                dims_used,
                tier,
                shard,
                degraded,
                ..
            } => {
                body.extend_from_slice(&label.to_le_bytes());
                body.extend_from_slice(&dims_used.to_le_bytes());
                body.extend_from_slice(&tier.to_le_bytes());
                body.extend_from_slice(&shard.to_le_bytes());
                body.push(u8::from(*degraded));
            }
            Frame::Refusal { detail, .. } => {
                let detail = &detail.as_bytes()[..detail.len().min(u16::MAX as usize)];
                body.extend_from_slice(&(detail.len() as u16).to_le_bytes());
                body.extend_from_slice(detail);
            }
            Frame::Ping { .. } | Frame::Accepted { .. } | Frame::Goodbye => {}
        }
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        let mut out = Vec::with_capacity(4 + body.len());
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Parses one complete frame (length prefix included). The bytes
    /// must contain exactly one frame; extra bytes are
    /// [`FrameError::TrailingBytes`].
    ///
    /// # Errors
    ///
    /// Every malformation is a typed [`FrameError`]; decoding never
    /// panics and never reads past `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<Frame, FrameError> {
        if bytes.len() < 4 {
            return Err(FrameError::Truncated {
                needed: 4,
                got: bytes.len(),
            });
        }
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        if len as usize > MAX_FRAME_LEN {
            return Err(FrameError::Oversized { len });
        }
        if (len as usize) < MIN_BODY {
            return Err(FrameError::Undersized { len });
        }
        let total = 4 + len as usize;
        if bytes.len() < total {
            return Err(FrameError::Truncated {
                needed: total,
                got: bytes.len(),
            });
        }
        if bytes.len() > total {
            return Err(FrameError::TrailingBytes {
                extra: bytes.len() - total,
            });
        }
        Frame::decode_body(&bytes[4..total])
    }

    /// Parses a frame body (everything after the length prefix);
    /// `body.len() >= MIN_BODY` is guaranteed by the caller.
    fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
        let magic = [body[0], body[1], body[2], body[3]];
        if magic != FRAME_MAGIC {
            return Err(FrameError::BadMagic { got: magic });
        }
        if body[4] != PROTOCOL_VERSION {
            return Err(FrameError::UnsupportedVersion { got: body[4] });
        }
        let crc_at = body.len() - 4;
        let stored = u32::from_le_bytes([
            body[crc_at],
            body[crc_at + 1],
            body[crc_at + 2],
            body[crc_at + 3],
        ]);
        let computed = crc32(&body[..crc_at]);
        if stored != computed {
            return Err(FrameError::ChecksumMismatch { stored, computed });
        }
        let opcode = body[5];
        let status =
            NetStatus::from_u8(body[6]).ok_or(FrameError::UnknownStatus { got: body[6] })?;
        if body[7] != 0 {
            return Err(FrameError::BadPayload {
                detail: "reserved header byte must be zero",
            });
        }
        let mut raw8 = [0u8; 8];
        raw8.copy_from_slice(&body[8..16]);
        let request_id = u64::from_le_bytes(raw8);
        raw8.copy_from_slice(&body[16..24]);
        let time_slot = u64::from_le_bytes(raw8);
        let tenant_len = u16::from_le_bytes([body[24], body[25]]) as usize;
        if BODY_FIXED + tenant_len > crc_at {
            return Err(FrameError::BadPayload {
                detail: "tenant length overruns the frame",
            });
        }
        let tenant_bytes = &body[BODY_FIXED..BODY_FIXED + tenant_len];
        let tenant = std::str::from_utf8(tenant_bytes).map_err(|_| FrameError::BadTenant)?;
        if tenant_len > 0 && opcode != OP_INFER {
            return Err(FrameError::BadPayload {
                detail: "only Infer frames may carry a tenant",
            });
        }
        if time_slot != 0 && !matches!(opcode, OP_INFER | OP_ANSWER) {
            return Err(FrameError::BadPayload {
                detail: "deadline/elapsed slot must be zero for this opcode",
            });
        }
        let expect_status = |want: NetStatus| -> Result<(), FrameError> {
            if status == want {
                Ok(())
            } else {
                Err(FrameError::BadPayload {
                    detail: "status code inconsistent with opcode",
                })
            }
        };
        let mut cursor = Cursor {
            bytes: &body[BODY_FIXED + tenant_len..crc_at],
        };
        let frame = match opcode {
            OP_INFER => {
                expect_status(NetStatus::Ok)?;
                let features = cursor.features()?;
                Frame::Infer {
                    request_id,
                    deadline_us: time_slot,
                    tenant: (!tenant.is_empty()).then(|| tenant.to_owned()),
                    features,
                }
            }
            OP_LEARN => {
                expect_status(NetStatus::Ok)?;
                let label = cursor.u64()?;
                let features = cursor.features()?;
                Frame::Learn {
                    request_id,
                    label,
                    features,
                }
            }
            OP_PING => {
                expect_status(NetStatus::Ok)?;
                Frame::Ping { request_id }
            }
            OP_ANSWER => {
                expect_status(NetStatus::Ok)?;
                let label = cursor.u64()?;
                let dims_used = cursor.u32()?;
                let tier = cursor.u32()?;
                let shard = cursor.u32()?;
                let degraded = match cursor.take(1)?[0] {
                    0 => false,
                    1 => true,
                    _ => {
                        return Err(FrameError::BadPayload {
                            detail: "degraded flag must be 0 or 1",
                        })
                    }
                };
                Frame::Answer {
                    request_id,
                    elapsed_us: time_slot,
                    label,
                    dims_used,
                    tier,
                    shard,
                    degraded,
                }
            }
            OP_ACCEPTED => {
                expect_status(NetStatus::Accepted)?;
                Frame::Accepted { request_id }
            }
            OP_REFUSAL => {
                if matches!(status, NetStatus::Ok | NetStatus::Accepted) {
                    return Err(FrameError::BadPayload {
                        detail: "a refusal cannot carry a success status",
                    });
                }
                let detail_len = cursor.u16()? as usize;
                let raw = cursor.take(detail_len)?;
                let detail = std::str::from_utf8(raw)
                    .map_err(|_| FrameError::BadPayload {
                        detail: "refusal detail is not UTF-8",
                    })?
                    .to_owned();
                Frame::Refusal {
                    request_id,
                    status,
                    detail,
                }
            }
            OP_GOODBYE => {
                expect_status(NetStatus::ShuttingDown)?;
                if request_id != 0 {
                    return Err(FrameError::BadPayload {
                        detail: "goodbye frames carry no request id",
                    });
                }
                Frame::Goodbye
            }
            other => return Err(FrameError::UnknownOpcode { got: other }),
        };
        cursor.finish()?;
        Ok(frame)
    }
}

/// Writes one frame to `w` (no buffering; callers wanting batching
/// should wrap `w` in a [`io::BufWriter`]).
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    w.write_all(&frame.encode())
}

/// Reads exactly one frame from a blocking stream. Returns `Ok(None)`
/// on clean EOF at a frame boundary.
///
/// # Errors
///
/// I/O errors pass through; malformed frames surface as
/// [`io::ErrorKind::InvalidData`] wrapping the [`FrameError`].
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame length prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len as usize > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::Oversized { len },
        ));
    }
    if (len as usize) < MIN_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::Undersized { len },
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Frame::decode_body(&body)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Incremental frame assembler for non-blocking/polled reads: feed raw
/// bytes with [`extend`](FrameReader::extend), pop complete frames with
/// [`next_frame`](FrameReader::next_frame). Partial frames are buffered
/// across reads; the assembler never reads past one frame's declared
/// length, so pipelined frames in one TCP segment all surface.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty assembler.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Appends raw bytes received from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// A typed [`FrameError`] as soon as the buffered prefix is provably
    /// invalid (oversized/undersized declared length, or any body
    /// malformation); the connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if len as usize > MAX_FRAME_LEN {
            return Err(FrameError::Oversized { len });
        }
        if (len as usize) < MIN_BODY {
            return Err(FrameError::Undersized { len });
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let frame = Frame::decode_body(&self.buf[4..total])?;
        self.buf.drain(..total);
        Ok(Some(frame))
    }
}

// ---------------------------------------------------------------------------
// Latency histogram (admission → socket write)
// ---------------------------------------------------------------------------

const HIST_BUCKETS: usize = 40;

/// Lock-free log₂ latency histogram: bucket *i* covers `[2^i, 2^(i+1))`
/// µs, so quantiles are upper bounds within 2× of exact.
struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    max_us: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    fn record(&self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let index = (63 - (us | 1).leading_zeros()) as usize;
        self.buckets[index.min(HIST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    fn summary(&self) -> LatencySummary {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = self.count.load(Ordering::Relaxed);
        let max_us = self.max_us.load(Ordering::Relaxed);
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((count as f64) * q).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &n) in counts.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    // Upper bound of bucket i, clamped to the true max.
                    let upper = if i + 1 >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << (i + 1)) - 1
                    };
                    return upper.min(max_us);
                }
            }
            max_us
        };
        LatencySummary {
            count,
            p50_us: quantile(0.50),
            p99_us: quantile(0.99),
            p999_us: quantile(0.999),
            max_us,
        }
    }
}

/// End-to-end (admission → socket write) latency quantiles of every
/// answered network request. Quantiles come from a log₂ histogram and
/// are upper bounds within 2× of exact; `max_us` is exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Latencies recorded.
    pub count: u64,
    /// Median, µs.
    pub p50_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
    /// 99.9th percentile, µs.
    pub p999_us: u64,
    /// Worst observed, µs (exact).
    pub max_us: u64,
}

// ---------------------------------------------------------------------------
// NetFrontend
// ---------------------------------------------------------------------------

/// How often the acceptor polls for shutdown between accepts.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Per-connection read timeout (the reader's shutdown-check tick).
const READ_POLL: Duration = Duration::from_millis(5);

/// Outstanding responses a connection may pipeline before the reader
/// stops admitting more (per-connection backpressure).
const MAX_PIPELINE: usize = 128;

#[derive(Debug, Default)]
struct NetCounters {
    connections: AtomicU64,
    frames_received: AtomicU64,
    responses_sent: AtomicU64,
    answered: AtomicU64,
    refused: AtomicU64,
    malformed: AtomicU64,
}

/// A point-in-time copy of the front-end's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted over the front-end's lifetime.
    pub connections: u64,
    /// Well-formed request frames decoded.
    pub frames_received: u64,
    /// Response frames written (answers + refusals + accepts).
    pub responses_sent: u64,
    /// [`Frame::Answer`] responses written.
    pub answered: u64,
    /// [`Frame::Refusal`] responses written.
    pub refused: u64,
    /// Malformed frames (each one dropped its connection).
    pub malformed: u64,
    /// Admission→socket-write latency of answered requests.
    pub latency: LatencySummary,
}

struct NetShared {
    handle: ServerHandle,
    shutdown: AtomicBool,
    counters: NetCounters,
    hist: Histogram,
}

impl NetShared {
    fn stats(&self) -> NetStats {
        NetStats {
            connections: self.counters.connections.load(Ordering::Relaxed),
            frames_received: self.counters.frames_received.load(Ordering::Relaxed),
            responses_sent: self.counters.responses_sent.load(Ordering::Relaxed),
            answered: self.counters.answered.load(Ordering::Relaxed),
            refused: self.counters.refused.load(Ordering::Relaxed),
            malformed: self.counters.malformed.load(Ordering::Relaxed),
            latency: self.hist.summary(),
        }
    }
}

/// The TCP serving front-end: accepts framed connections and routes
/// them into a [`ServerHandle`]. Bind with [`bind`](NetFrontend::bind),
/// stop with [`shutdown`](NetFrontend::shutdown) (which ends every
/// connection with a final [`Frame::Goodbye`]).
pub struct NetFrontend {
    shared: Arc<NetShared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

/// What the per-connection writer thread processes, in request order.
enum Outgoing {
    /// A response decided at admission (refusal or accept).
    Ready(Frame),
    /// An admitted request: redeem the ticket, then answer.
    Pending {
        request_id: u64,
        admitted: Instant,
        ticket: Ticket,
    },
}

impl NetFrontend {
    /// Binds `addr` (use port 0 for an ephemeral port — read it back
    /// with [`local_addr`](NetFrontend::local_addr)) and starts
    /// accepting connections against `handle`.
    ///
    /// # Errors
    ///
    /// Propagates bind/spawn failures.
    pub fn bind<A: ToSocketAddrs>(addr: A, handle: ServerHandle) -> io::Result<NetFrontend> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(NetShared {
            handle,
            shutdown: AtomicBool::new(false),
            counters: NetCounters::default(),
            hist: Histogram::new(),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("generic-net-acceptor".into())
                .spawn(move || acceptor(&listener, &shared))?
        };
        Ok(NetFrontend {
            shared,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live front-end counters.
    pub fn stats(&self) -> NetStats {
        self.shared.stats()
    }

    /// Graceful shutdown: stop accepting, finish every in-flight
    /// response, send each connection a final [`Frame::Goodbye`], close
    /// all sockets, and return the final counters.
    pub fn shutdown(mut self) -> NetStats {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(acceptor) = self.acceptor.take() {
            if let Ok(connections) = acceptor.join() {
                for connection in connections {
                    let _ = connection.join();
                }
            }
        }
        self.shared.stats()
    }
}

impl Drop for NetFrontend {
    fn drop(&mut self) {
        // Un-shut-down drops still stop the acceptor and readers; the
        // threads exit on their next poll tick without being joined.
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }
}

fn acceptor(listener: &TcpListener, shared: &Arc<NetShared>) -> Vec<JoinHandle<()>> {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                connections.retain(|c| !c.is_finished());
                let shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("generic-net-conn".into())
                    .spawn(move || connection(&stream, &shared));
                if let Ok(handle) = spawned {
                    connections.push(handle);
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    connections
}

/// Per-connection reader: assembles frames, admits requests, and hands
/// responses (in request order) to the writer thread. Runs until EOF,
/// a malformed frame, or shutdown.
fn connection(stream: &TcpStream, shared: &Arc<NetShared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::sync_channel::<Outgoing>(MAX_PIPELINE);
    let writer = {
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name("generic-net-writer".into())
            .spawn(move || connection_writer(write_half, &rx, &shared))
    };
    let Ok(writer) = writer else {
        return;
    };

    let mut reader = FrameReader::new();
    let mut chunk = [0u8; 4096];
    let mut stream = stream;
    'conn: loop {
        loop {
            match reader.next_frame() {
                Ok(Some(frame)) => {
                    if !handle_frame(frame, shared, &tx) {
                        break 'conn;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // A malformed frame poisons only its connection:
                    // best-effort refusal, then drop the socket.
                    shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
                    let _ = tx.try_send(Outgoing::Ready(Frame::Refusal {
                        request_id: 0,
                        status: NetStatus::Malformed,
                        detail: e.to_string(),
                    }));
                    break 'conn;
                }
            }
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => reader.extend(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => break,
        }
    }
    drop(tx);
    let _ = writer.join();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Routes one decoded frame; returns `false` to drop the connection.
fn handle_frame(frame: Frame, shared: &NetShared, tx: &mpsc::SyncSender<Outgoing>) -> bool {
    shared
        .counters
        .frames_received
        .fetch_add(1, Ordering::Relaxed);
    match frame {
        Frame::Infer {
            request_id,
            deadline_us,
            tenant,
            features,
        } => {
            let budget = (deadline_us > 0).then(|| Duration::from_micros(deadline_us));
            let admitted = Instant::now();
            let result = match &tenant {
                None => shared.handle.submit(features, budget),
                Some(t) => shared.handle.submit_tenant(t, features, budget),
            };
            let outgoing = match result {
                Ok(ticket) => Outgoing::Pending {
                    request_id,
                    admitted,
                    ticket,
                },
                Err(e) => Outgoing::Ready(Frame::Refusal {
                    request_id,
                    status: NetStatus::from_submit_error(&e),
                    detail: e.to_string(),
                }),
            };
            tx.send(outgoing).is_ok()
        }
        Frame::Learn {
            request_id,
            label,
            features,
        } => {
            let outgoing = match usize::try_from(label) {
                Ok(label) => match shared.handle.submit_learn(features, label) {
                    Ok(()) => Outgoing::Ready(Frame::Accepted { request_id }),
                    Err(e) => Outgoing::Ready(Frame::Refusal {
                        request_id,
                        status: NetStatus::from_submit_error(&e),
                        detail: e.to_string(),
                    }),
                },
                Err(_) => Outgoing::Ready(Frame::Refusal {
                    request_id,
                    status: NetStatus::Malformed,
                    detail: "label exceeds the platform's usize".to_owned(),
                }),
            };
            tx.send(outgoing).is_ok()
        }
        Frame::Ping { request_id } => tx
            .send(Outgoing::Ready(Frame::Accepted { request_id }))
            .is_ok(),
        // Response-direction frames from a client are protocol abuse;
        // treat exactly like a malformed frame.
        Frame::Answer { .. } | Frame::Accepted { .. } | Frame::Refusal { .. } | Frame::Goodbye => {
            shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
            let _ = tx.try_send(Outgoing::Ready(Frame::Refusal {
                request_id: 0,
                status: NetStatus::Malformed,
                detail: "response-direction opcode received from client".to_owned(),
            }));
            false
        }
    }
}

/// Per-connection writer: redeems tickets in request order and writes
/// responses; records admission→write latency for answered requests.
fn connection_writer(mut stream: TcpStream, rx: &mpsc::Receiver<Outgoing>, shared: &NetShared) {
    let mut writable = true;
    for outgoing in rx.iter() {
        let (frame, admitted) = match outgoing {
            Outgoing::Ready(frame) => (frame, None),
            Outgoing::Pending {
                request_id,
                admitted,
                ticket,
            } => {
                // Redeem even when the socket already failed: the shard
                // has (or will have) scored it; dropping the ticket
                // early would not un-admit it.
                let frame = match ticket.wait() {
                    Ok(answer) => Frame::Answer {
                        request_id,
                        elapsed_us: u64::try_from(answer.elapsed.as_micros()).unwrap_or(u64::MAX),
                        label: answer.label as u64,
                        dims_used: answer.dims_used as u32,
                        tier: answer.tier as u32,
                        shard: answer.shard as u32,
                        degraded: answer.degraded,
                    },
                    Err(e) => Frame::Refusal {
                        request_id,
                        status: NetStatus::from_serve_error(&e),
                        detail: e.to_string(),
                    },
                };
                (frame, Some(admitted))
            }
        };
        if !writable {
            continue;
        }
        if stream.write_all(&frame.encode()).is_err() {
            writable = false;
            continue;
        }
        shared
            .counters
            .responses_sent
            .fetch_add(1, Ordering::Relaxed);
        match &frame {
            Frame::Answer { .. } => {
                shared.counters.answered.fetch_add(1, Ordering::Relaxed);
                if let Some(admitted) = admitted {
                    shared.hist.record(admitted.elapsed());
                }
            }
            Frame::Refusal { .. } => {
                shared.counters.refused.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
    // Drain ends the channel; a graceful shutdown says goodbye so the
    // client can distinguish it from a connection fault.
    if writable && shared.shutdown.load(Ordering::Relaxed) {
        let _ = stream.write_all(&Frame::Goodbye.encode());
    }
    let _ = stream.flush();
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Infer {
                request_id: 7,
                deadline_us: 1500,
                tenant: None,
                features: vec![0.5, -1.25, 3.0],
            },
            Frame::Infer {
                request_id: 8,
                deadline_us: 0,
                tenant: Some("acme".to_owned()),
                features: vec![1.0],
            },
            Frame::Learn {
                request_id: 9,
                label: 2,
                features: vec![0.0, f64::MAX],
            },
            Frame::Ping { request_id: 10 },
            Frame::Answer {
                request_id: 7,
                elapsed_us: 421,
                label: 1,
                dims_used: 2048,
                tier: 4,
                shard: 1,
                degraded: false,
            },
            Frame::Accepted { request_id: 9 },
            Frame::Refusal {
                request_id: 11,
                status: NetStatus::Shed,
                detail: "budget 1µs unmeetable".to_owned(),
            },
            Frame::Goodbye,
        ]
    }

    #[test]
    fn frames_round_trip_byte_exactly() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            let decoded = Frame::decode(&bytes).unwrap();
            assert_eq!(decoded, frame);
            assert_eq!(decoded.encode(), bytes, "canonical re-encode");
        }
    }

    #[test]
    fn truncation_is_a_typed_error_at_every_length() {
        let bytes = sample_frames()[0].encode();
        for cut in 0..bytes.len() {
            let err = Frame::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, FrameError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn bit_flips_never_decode_to_a_different_frame() {
        let frame = &sample_frames()[2];
        let bytes = frame.encode();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut tampered = bytes.clone();
                tampered[byte] ^= 1 << bit;
                if let Ok(decoded) = Frame::decode(&tampered) {
                    assert_eq!(&decoded, frame, "byte {byte} bit {bit}");
                }
            }
        }
    }

    #[test]
    fn wrong_version_and_magic_are_typed() {
        let mut bytes = sample_frames()[3].encode();
        bytes[8] = 9; // version byte (after 4-byte prefix + 4-byte magic)
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::UnsupportedVersion { got: 9 })
        ));
        let mut bytes = sample_frames()[3].encode();
        bytes[4] = b'X';
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::BadMagic { .. })
        ));
    }

    #[test]
    fn oversized_declared_length_is_refused_before_allocation() {
        let mut bytes = vec![0u8; 8];
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn frame_reader_assembles_across_arbitrary_splits() {
        let frames = sample_frames();
        let stream: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
        for chunk_size in [1, 3, 7, 64, stream.len()] {
            let mut reader = FrameReader::new();
            let mut decoded = Vec::new();
            for chunk in stream.chunks(chunk_size) {
                reader.extend(chunk);
                while let Some(frame) = reader.next_frame().unwrap() {
                    decoded.push(frame);
                }
            }
            assert_eq!(decoded, frames, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn histogram_quantiles_bound_the_true_values() {
        let hist = Histogram::new();
        for us in [1u64, 10, 100, 1000, 10_000] {
            for _ in 0..20 {
                hist.record(Duration::from_micros(us));
            }
        }
        let summary = hist.summary();
        assert_eq!(summary.count, 100);
        assert_eq!(summary.max_us, 10_000);
        assert!(
            summary.p50_us >= 100 && summary.p50_us <= 255,
            "{summary:?}"
        );
        assert!(summary.p999_us >= 10_000, "{summary:?}");
        assert!(summary.p999_us <= summary.max_us.max(16_383));
    }

    #[test]
    fn submit_error_statuses_are_distinct_and_stable() {
        use std::collections::HashSet;
        let statuses: Vec<NetStatus> = [
            SubmitError::QueueFull,
            SubmitError::DeadlineHopeless {
                budget: Duration::from_micros(1),
            },
            SubmitError::Rejected(crate::runtime::RejectReason::WrongWidth {
                expected: 2,
                actual: 3,
            }),
            SubmitError::Unavailable,
            SubmitError::ShuttingDown,
            SubmitError::TenantUnavailable {
                tenant: "t".to_owned(),
                reason: "unknown".to_owned(),
            },
        ]
        .iter()
        .map(NetStatus::from_submit_error)
        .collect();
        let unique: HashSet<u8> = statuses.iter().map(|s| s.as_u8()).collect();
        assert_eq!(unique.len(), statuses.len());
    }
}
