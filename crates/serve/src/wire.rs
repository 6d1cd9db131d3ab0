//! The Brook service wire protocol: length-prefixed binary frames.
//!
//! Every message is one frame: a little-endian `u32` payload length
//! followed by the payload. A frame leaves in a single `write` — prefix
//! and payload share one buffer — so with `TCP_NODELAY` each message is
//! one segment, not a 4-byte segment followed by the payload. A frame
//! is read into a buffer that grows as its bytes arrive, so a bare
//! length prefix cannot make the reader allocate the whole frame.
//! Payloads are hand-rolled tagged binary (no
//! serialization dependency — the container images this targets are
//! offline): strings are `u16` length + UTF-8, vectors are `u32` count
//! + elements, numbers are little-endian.
//!
//! The protocol is strictly request/response per connection; pipelining
//! happens across connections (the server shards by tenant, not by
//! socket). Every reply is either a typed payload or a structured
//! [`ErrorCode`] + message — a malformed or over-budget request fails
//! *that request*, never the connection's peer or the process.

use std::io::{self, Read, Write};

/// Upper bound on a single frame, requests and replies alike. Large
/// enough for a 4M-element stream readback, small enough that a
/// malicious length prefix cannot OOM the host.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Structured failure category carried on every error reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame decoded but the request is not well-formed (unknown
    /// tag, bad handle, wrong payload).
    Malformed = 1,
    /// Front-end (lex/parse/type) failure in submitted source.
    Compile = 2,
    /// The program violates the certification rules.
    Certification = 3,
    /// Runtime misuse (wrong argument kinds, size mismatches, ...).
    Usage = 4,
    /// Device-side failure.
    Device = 5,
    /// The request's static cost exceeds the admission budget; the
    /// request was refused *before* touching the execution pipeline.
    AdmissionRejected = 6,
    /// The shard's queue is full; back off and retry. Never queued to
    /// death: the server sheds load instead of growing latency.
    Busy = 7,
    /// The toolchain itself failed an invariant (including a caught
    /// panic). The request failed; the process did not.
    Internal = 8,
    /// The launch exceeded its deadline: the watchdog cancelled it and
    /// answered on its behalf. The tenant's state is still consistent
    /// (dispatch is idempotent); re-issuing the request is safe.
    Timeout = 9,
    /// A transient server-side condition (device loss mid-recovery, a
    /// tripped circuit breaker cooling down). Safe to retry; the reply's
    /// `retry_after_ms` hints when.
    Retryable = 10,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::Compile,
            3 => ErrorCode::Certification,
            4 => ErrorCode::Usage,
            5 => ErrorCode::Device,
            6 => ErrorCode::AdmissionRejected,
            7 => ErrorCode::Busy,
            8 => ErrorCode::Internal,
            9 => ErrorCode::Timeout,
            10 => ErrorCode::Retryable,
            _ => return None,
        })
    }

    /// Whether a client may re-issue the failed request verbatim and
    /// plausibly succeed (load shedding, cooldowns, deadlines — not
    /// malformed or non-compliant programs).
    pub fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::Busy | ErrorCode::Timeout | ErrorCode::Retryable)
    }
}

/// A kernel launch argument on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum WireArg {
    /// A tenant-scoped stream handle.
    Stream(u64),
    /// Scalar `float`.
    Float(f32),
    /// Scalar `int`.
    Int(i32),
    /// `float4` constant.
    Float4([f32; 4]),
}

/// A client request. Every request names the tenant it acts for; the
/// server routes it to that tenant's shard and context.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile (or fetch from the shared module cache) Brook source,
    /// returning a tenant-scoped module handle.
    Compile { tenant: String, source: String },
    /// Allocate a stream of `floatN` elements.
    CreateStream {
        tenant: String,
        shape: Vec<u32>,
        width: u8,
    },
    /// Upload values into a stream.
    Write {
        tenant: String,
        stream: u64,
        data: Vec<f32>,
    },
    /// Download a stream.
    Read { tenant: String, stream: u64 },
    /// Launch a kernel over its output domain.
    Run {
        tenant: String,
        module: u64,
        kernel: String,
        args: Vec<WireArg>,
    },
    /// Fold a stream to a scalar with a reduce kernel.
    Reduce {
        tenant: String,
        module: u64,
        kernel: String,
        stream: u64,
    },
    /// Release a stream (and its admission memory charge).
    DropStream { tenant: String, stream: u64 },
    /// Server-wide counters (requests, panics, cache traffic, ...).
    Stats,
}

impl Request {
    /// The tenant a request acts for; `Stats` is tenant-less and may be
    /// served by any shard.
    pub fn tenant(&self) -> Option<&str> {
        match self {
            Request::Compile { tenant, .. }
            | Request::CreateStream { tenant, .. }
            | Request::Write { tenant, .. }
            | Request::Read { tenant, .. }
            | Request::Run { tenant, .. }
            | Request::Reduce { tenant, .. }
            | Request::DropStream { tenant, .. } => Some(tenant),
            Request::Stats => None,
        }
    }
}

/// A server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success without a payload (`Write`, `Run`, `DropStream`).
    Ok,
    /// A fresh tenant-scoped handle (`Compile`, `CreateStream`).
    Handle(u64),
    /// A scalar result (`Reduce`).
    Scalar(f32),
    /// Stream contents (`Read`).
    Data(Vec<f32>),
    /// Counter name/value pairs (`Stats`).
    Stats(Vec<(String, u64)>),
    /// Structured failure. `retry_after_ms` is the server's back-off
    /// hint on shed/cooldown replies (`Busy`, `Retryable`): how long the
    /// condition is expected to last. Absent on non-retryable errors.
    Error {
        code: ErrorCode,
        message: String,
        retry_after_ms: Option<u64>,
    },
}

impl Response {
    /// An error reply without a back-off hint.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Error {
            code,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    /// An error reply hinting the client to retry after `retry_after_ms`.
    pub fn error_with_retry(code: ErrorCode, message: impl Into<String>, retry_after_ms: u64) -> Response {
        Response::Error {
            code,
            message: message.into(),
            retry_after_ms: Some(retry_after_ms),
        }
    }
}

// ---------------------------------------------------------------------
// Encoding primitives.

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

fn put_str(buf: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    put_u16(buf, s.len() as u16);
    buf.extend_from_slice(s.as_bytes());
}

fn put_f32s(buf: &mut Vec<u8>, vs: &[f32]) {
    put_u32(buf, vs.len() as u32);
    for v in vs {
        put_f32(buf, *v);
    }
}

/// Cursor-style decoder over a frame payload. Every accessor is bounds-
/// checked: a truncated or lying frame yields a decode error, never a
/// slice panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Frame decode failure (malformed payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

type Decode<T> = std::result::Result<T, DecodeError>;

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Decode<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|e| *e <= self.buf.len())
            .ok_or_else(|| DecodeError(format!("{n} bytes past end of frame")))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Decode<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Decode<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Decode<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Decode<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Decode<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Decode<String> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError("string is not UTF-8".into()))
    }

    fn f32s(&mut self) -> Decode<Vec<f32>> {
        let n = self.u32()? as usize;
        // Guard the multiplication before reserving: the count must be
        // consistent with the remaining payload.
        if n.saturating_mul(4) > self.buf.len() - self.pos {
            return Err(DecodeError(format!("f32 count {n} exceeds frame")));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f32()?);
        }
        Ok(out)
    }

    fn finish(self) -> Decode<()> {
        if self.pos != self.buf.len() {
            return Err(DecodeError(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Message encoding.

impl Request {
    /// Serializes into a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        self.encode_into(&mut b);
        b
    }

    /// Appends the frame payload to `b`.
    pub(crate) fn encode_into(&self, b: &mut Vec<u8>) {
        match self {
            Request::Compile { tenant, source } => {
                b.push(0);
                put_str(b, tenant);
                put_u32(b, source.len() as u32);
                b.extend_from_slice(source.as_bytes());
            }
            Request::CreateStream { tenant, shape, width } => {
                b.push(1);
                put_str(b, tenant);
                b.push(*width);
                b.push(shape.len() as u8);
                for d in shape {
                    put_u32(b, *d);
                }
            }
            Request::Write { tenant, stream, data } => {
                b.push(2);
                put_str(b, tenant);
                put_u64(b, *stream);
                put_f32s(b, data);
            }
            Request::Read { tenant, stream } => {
                b.push(3);
                put_str(b, tenant);
                put_u64(b, *stream);
            }
            Request::Run {
                tenant,
                module,
                kernel,
                args,
            } => {
                b.push(4);
                put_str(b, tenant);
                put_u64(b, *module);
                put_str(b, kernel);
                b.push(args.len() as u8);
                for a in args {
                    match a {
                        WireArg::Stream(h) => {
                            b.push(0);
                            put_u64(b, *h);
                        }
                        WireArg::Float(v) => {
                            b.push(1);
                            put_f32(b, *v);
                        }
                        WireArg::Int(v) => {
                            b.push(2);
                            b.extend_from_slice(&v.to_le_bytes());
                        }
                        WireArg::Float4(v) => {
                            b.push(3);
                            for c in v {
                                put_f32(b, *c);
                            }
                        }
                    }
                }
            }
            Request::Reduce {
                tenant,
                module,
                kernel,
                stream,
            } => {
                b.push(5);
                put_str(b, tenant);
                put_u64(b, *module);
                put_str(b, kernel);
                put_u64(b, *stream);
            }
            Request::DropStream { tenant, stream } => {
                b.push(6);
                put_str(b, tenant);
                put_u64(b, *stream);
            }
            Request::Stats => b.push(7),
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    /// Any truncation, trailing garbage, unknown tag or malformed field.
    pub fn decode(buf: &[u8]) -> Decode<Request> {
        let mut c = Cursor::new(buf);
        let req = match c.u8()? {
            0 => {
                let tenant = c.str()?;
                let n = c.u32()? as usize;
                let bytes = c.take(n)?;
                let source = String::from_utf8(bytes.to_vec())
                    .map_err(|_| DecodeError("source is not UTF-8".into()))?;
                Request::Compile { tenant, source }
            }
            1 => {
                let tenant = c.str()?;
                let width = c.u8()?;
                let rank = c.u8()? as usize;
                let mut shape = Vec::with_capacity(rank.min(8));
                for _ in 0..rank {
                    shape.push(c.u32()?);
                }
                Request::CreateStream { tenant, shape, width }
            }
            2 => Request::Write {
                tenant: c.str()?,
                stream: c.u64()?,
                data: c.f32s()?,
            },
            3 => Request::Read {
                tenant: c.str()?,
                stream: c.u64()?,
            },
            4 => {
                let tenant = c.str()?;
                let module = c.u64()?;
                let kernel = c.str()?;
                let n = c.u8()? as usize;
                let mut args = Vec::with_capacity(n);
                for _ in 0..n {
                    args.push(match c.u8()? {
                        0 => WireArg::Stream(c.u64()?),
                        1 => WireArg::Float(c.f32()?),
                        2 => WireArg::Int(i32::from_le_bytes(c.take(4)?.try_into().unwrap())),
                        3 => WireArg::Float4([c.f32()?, c.f32()?, c.f32()?, c.f32()?]),
                        t => return Err(DecodeError(format!("unknown arg tag {t}"))),
                    });
                }
                Request::Run {
                    tenant,
                    module,
                    kernel,
                    args,
                }
            }
            5 => Request::Reduce {
                tenant: c.str()?,
                module: c.u64()?,
                kernel: c.str()?,
                stream: c.u64()?,
            },
            6 => Request::DropStream {
                tenant: c.str()?,
                stream: c.u64()?,
            },
            7 => Request::Stats,
            t => return Err(DecodeError(format!("unknown request tag {t}"))),
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Serializes into a frame payload (no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut b = Vec::new();
        self.encode_into(&mut b);
        b
    }

    /// Appends the frame payload to `b`.
    pub(crate) fn encode_into(&self, b: &mut Vec<u8>) {
        match self {
            Response::Ok => b.push(0),
            Response::Handle(h) => {
                b.push(1);
                put_u64(b, *h);
            }
            Response::Scalar(v) => {
                b.push(2);
                put_f32(b, *v);
            }
            Response::Data(vs) => {
                b.push(3);
                put_f32s(b, vs);
            }
            Response::Stats(pairs) => {
                b.push(4);
                put_u16(b, pairs.len() as u16);
                for (k, v) in pairs {
                    put_str(b, k);
                    put_u64(b, *v);
                }
            }
            Response::Error {
                code,
                message,
                retry_after_ms,
            } => {
                b.push(5);
                b.push(*code as u8);
                put_str(b, message);
                match retry_after_ms {
                    Some(ms) => {
                        b.push(1);
                        put_u64(b, *ms);
                    }
                    None => b.push(0),
                }
            }
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    /// Any truncation, trailing garbage, unknown tag or malformed field.
    pub fn decode(buf: &[u8]) -> Decode<Response> {
        let mut c = Cursor::new(buf);
        let resp = match c.u8()? {
            0 => Response::Ok,
            1 => Response::Handle(c.u64()?),
            2 => Response::Scalar(c.f32()?),
            3 => Response::Data(c.f32s()?),
            4 => {
                let n = c.u16()? as usize;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = c.str()?;
                    let v = c.u64()?;
                    pairs.push((k, v));
                }
                Response::Stats(pairs)
            }
            5 => {
                let code =
                    ErrorCode::from_u8(c.u8()?).ok_or_else(|| DecodeError("unknown error code".into()))?;
                let message = c.str()?;
                let retry_after_ms = match c.u8()? {
                    0 => None,
                    1 => Some(c.u64()?),
                    t => return Err(DecodeError(format!("bad retry_after flag {t}"))),
                };
                Response::Error {
                    code,
                    message,
                    retry_after_ms,
                }
            }
            t => return Err(DecodeError(format!("unknown response tag {t}"))),
        };
        c.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// Framing.

/// Initial capacity of a frame read buffer. The buffer grows as
/// payload bytes arrive, so a peer that sends only a length prefix
/// costs at most this much memory, not [`MAX_FRAME`].
const READ_CHUNK: usize = 64 * 1024;

/// Writes one length-prefixed frame with a single `write_all`.
///
/// # Errors
/// Underlying I/O failures, or a payload above [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    send_frame(w, |b| b.extend_from_slice(payload))
}

/// Writes one frame whose payload `encode` appends to the frame buffer:
/// the length prefix is reserved up front and patched afterwards, so
/// the message is encoded once and leaves in a single `write_all`.
///
/// # Errors
/// Underlying I/O failures, or a payload above [`MAX_FRAME`].
pub(crate) fn send_frame(w: &mut impl Write, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    let mut frame = vec![0u8; 4];
    encode(&mut frame);
    let len = frame.len() - 4;
    if len > MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    frame[..4].copy_from_slice(&(len as u32).to_le_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one length-prefixed frame. `Ok(None)` on clean EOF at a frame
/// boundary (the peer closed the connection).
///
/// # Errors
/// Underlying I/O failures, a length prefix above [`MAX_FRAME`], or EOF
/// inside a frame.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let len = len as usize;
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame ended after {} of {len} payload bytes", payload.len()),
        ));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(r: Request) {
        let enc = r.encode();
        assert_eq!(Request::decode(&enc).expect("decode"), r);
    }

    fn roundtrip_resp(r: Response) {
        let enc = r.encode();
        assert_eq!(Response::decode(&enc).expect("decode"), r);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(Request::Compile {
            tenant: "t0".into(),
            source: "kernel void k(float a<>, out float o<>) { o = a; }".into(),
        });
        roundtrip_req(Request::CreateStream {
            tenant: "t1".into(),
            shape: vec![64, 64],
            width: 4,
        });
        roundtrip_req(Request::Write {
            tenant: "t".into(),
            stream: 7,
            data: vec![1.0, -2.5, f32::MIN_POSITIVE],
        });
        roundtrip_req(Request::Read {
            tenant: "t".into(),
            stream: 9,
        });
        roundtrip_req(Request::Run {
            tenant: "t".into(),
            module: 3,
            kernel: "saxpy".into(),
            args: vec![
                WireArg::Stream(1),
                WireArg::Float(2.5),
                WireArg::Int(-7),
                WireArg::Float4([1.0, 2.0, 3.0, 4.0]),
            ],
        });
        roundtrip_req(Request::Reduce {
            tenant: "t".into(),
            module: 3,
            kernel: "sum".into(),
            stream: 1,
        });
        roundtrip_req(Request::DropStream {
            tenant: "t".into(),
            stream: 4,
        });
        roundtrip_req(Request::Stats);
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Handle(u64::MAX));
        roundtrip_resp(Response::Scalar(-0.0));
        roundtrip_resp(Response::Data(vec![0.0; 1000]));
        roundtrip_resp(Response::Stats(vec![
            ("requests".into(), 12),
            ("panics".into(), 0),
        ]));
        roundtrip_resp(Response::Error {
            code: ErrorCode::AdmissionRejected,
            message: "cost 10 over budget 5".into(),
            retry_after_ms: None,
        });
        roundtrip_resp(Response::error_with_retry(
            ErrorCode::Retryable,
            "breaker open",
            250,
        ));
        roundtrip_resp(Response::error(ErrorCode::Timeout, "deadline exceeded"));
    }

    #[test]
    fn retryable_codes_are_classified() {
        for code in [ErrorCode::Busy, ErrorCode::Timeout, ErrorCode::Retryable] {
            assert!(code.is_retryable(), "{code:?}");
        }
        for code in [
            ErrorCode::Malformed,
            ErrorCode::Compile,
            ErrorCode::Certification,
            ErrorCode::Usage,
            ErrorCode::Device,
            ErrorCode::AdmissionRejected,
            ErrorCode::Internal,
        ] {
            assert!(!code.is_retryable(), "{code:?}");
        }
    }

    #[test]
    fn truncated_and_trailing_frames_are_decode_errors() {
        let enc = Request::Read {
            tenant: "t".into(),
            stream: 9,
        }
        .encode();
        assert!(Request::decode(&enc[..enc.len() - 1]).is_err(), "truncated");
        let mut extra = enc.clone();
        extra.push(0);
        assert!(Request::decode(&extra).is_err(), "trailing byte");
        assert!(Request::decode(&[99]).is_err(), "unknown tag");
        // A lying f32 count must not allocate or panic.
        let mut lying = vec![2u8];
        lying.extend_from_slice(&1u16.to_le_bytes());
        lying.push(b't');
        lying.extend_from_slice(&0u64.to_le_bytes());
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&lying).is_err(), "lying count");
    }

    #[test]
    fn framing_roundtrips_and_bounds() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").expect("write");
        write_frame(&mut buf, b"").expect("write empty");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).expect("read").as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).expect("read").as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).expect("eof"), None);
        // An oversized length prefix is rejected without allocating.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
        // EOF inside a frame is an error, not a silent None.
        let partial = [5u8, 0, 0, 0, b'a'];
        assert!(read_frame(&mut &partial[..]).is_err());
    }

    /// Feeds its bytes one per `read` call, then EOF.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match (self.0.split_first(), buf.first_mut()) {
                (Some((b, rest)), Some(slot)) => {
                    *slot = *b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    /// Counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn byte_at_a_time_reader_roundtrips_a_frame() {
        let request = Request::Run {
            tenant: "tenant-0".into(),
            module: 1,
            kernel: "saxpy".into(),
            args: vec![WireArg::Stream(2), WireArg::Float(1.5), WireArg::Stream(3)],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, &request.encode()).expect("write");
        let frame = read_frame(&mut Trickle(&buf)).expect("read").expect("frame");
        assert_eq!(Request::decode(&frame).expect("decode"), request);
    }

    #[test]
    fn declared_max_frame_then_eof_is_unexpected_eof() {
        let mut bytes = MAX_FRAME.to_le_bytes().to_vec();
        bytes.extend_from_slice(b"only a few payload bytes");
        let err = read_frame(&mut &bytes[..]).expect_err("short payload");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        // A bare prefix: no payload byte ever arrives.
        let err = read_frame(&mut &MAX_FRAME.to_le_bytes()[..]).expect_err("no payload");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn each_frame_is_one_write() {
        let run = Request::Run {
            tenant: "tenant-0".into(),
            module: 1,
            kernel: "saxpy".into(),
            args: vec![
                WireArg::Stream(2),
                WireArg::Stream(3),
                WireArg::Float(2.0),
                WireArg::Stream(4),
            ],
        };
        let data = Response::Data((0..256).map(|i| i as f32).collect());
        let encoded = [run.encode(), data.encode()];
        for payload in &encoded {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).expect("write_frame");
            assert_eq!(w.writes, 1, "write_frame of {} bytes", payload.len());
            assert_eq!(
                read_frame(&mut &w.bytes[..]).expect("read").as_ref(),
                Some(payload)
            );
        }
        // The encode-in-place path the client and server use.
        let mut w = CountingWriter::default();
        send_frame(&mut w, |b| run.encode_into(b)).expect("send request");
        send_frame(&mut w, |b| data.encode_into(b)).expect("send reply");
        assert_eq!(w.writes, 2, "one write per frame");
        let mut r = &w.bytes[..];
        for payload in &encoded {
            assert_eq!(read_frame(&mut r).expect("read").as_ref(), Some(payload));
        }
    }
}
