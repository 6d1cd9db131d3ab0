//! A blocking wire-protocol client: one request in flight per
//! connection (open several connections for pipelining — the server
//! shards by tenant, not by socket).
//!
//! Transport robustness: every connection carries socket read/write
//! timeouts (default [`DEFAULT_SOCKET_TIMEOUT`]), so a stalled or
//! wedged server surfaces as a typed [`ClientError::TimedOut`] instead
//! of hanging the caller forever. Shed-load and cooldown replies
//! (`Busy`, `Retryable`, `Timeout`) can be retried transparently with
//! [`Client::with_retry`], which honors the server's `retry_after_ms`
//! hint when it exceeds the policy's own jittered backoff.

use crate::wire::{read_frame, send_frame, DecodeError, ErrorCode, Request, Response, WireArg};
use brook_auto::inject::Backoff;
use std::io;
use std::net::TcpStream;
use std::time::Duration;

/// Socket read/write timeout applied by [`Client::connect`].
pub const DEFAULT_SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The socket timed out waiting for the server (stalled peer,
    /// unread reply). The connection's stream state is indeterminate —
    /// reconnect rather than reuse.
    TimedOut,
    /// The server's reply did not decode.
    Decode(DecodeError),
    /// The server answered with a structured error. `retry_after_ms`
    /// is its back-off hint on shed/cooldown replies.
    Server {
        code: ErrorCode,
        message: String,
        retry_after_ms: Option<u64>,
    },
    /// The server answered with the wrong payload kind for the request.
    UnexpectedReply(Response),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::TimedOut => write!(f, "timed out waiting for the server"),
            ClientError::Server { code, message, .. } => write!(f, "server {code:?}: {message}"),
            ClientError::Decode(e) => write!(f, "{e}"),
            ClientError::UnexpectedReply(r) => write!(f, "unexpected reply {r:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        // Read/write socket timeouts surface as WouldBlock (unix) or
        // TimedOut (windows); both mean "the peer stalled".
        if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
            return ClientError::TimedOut;
        }
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The structured server error code, when this is a server error.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server { code, .. } => Some(*code),
            _ => None,
        }
    }

    /// The server's back-off hint, when the reply carried one.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            ClientError::Server { retry_after_ms, .. } => *retry_after_ms,
            _ => None,
        }
    }

    /// Whether re-issuing the same request may succeed (shed load,
    /// breaker cooldown, missed deadline — all with idempotent
    /// server-side semantics).
    pub fn is_retryable(&self) -> bool {
        self.code().is_some_and(ErrorCode::is_retryable)
    }
}

/// Bounded-retry policy for [`Client::with_retry`]: jittered
/// exponential backoff, overridden upward by the server's
/// `retry_after_ms` hint when present.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts (the first try included). 0 behaves as 1.
    pub max_attempts: u32,
    /// Backoff base in milliseconds for the first retry.
    pub backoff_base_ms: u64,
    /// Backoff cap in milliseconds.
    pub backoff_cap_ms: u64,
    /// Jitter seed — fixed seed, reproducible pause schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            backoff_base_ms: 2,
            backoff_cap_ms: 200,
            seed: 0x5eed,
        }
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = std::result::Result<T, ClientError>;

/// A connected client acting for one tenant. The tenant name rides on
/// every request; two clients with the same tenant name share that
/// tenant's server-side context.
pub struct Client {
    conn: TcpStream,
    tenant: String,
}

impl Client {
    /// Connects to a server and binds this client to `tenant`, with
    /// [`DEFAULT_SOCKET_TIMEOUT`] read/write timeouts.
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(addr: impl std::net::ToSocketAddrs, tenant: &str) -> io::Result<Client> {
        Client::connect_with_timeout(addr, tenant, Some(DEFAULT_SOCKET_TIMEOUT))
    }

    /// Connects with explicit socket read/write timeouts (`None`
    /// blocks forever — the pre-timeout behavior).
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect_with_timeout(
        addr: impl std::net::ToSocketAddrs,
        tenant: &str,
        timeout: Option<Duration>,
    ) -> io::Result<Client> {
        let conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        conn.set_read_timeout(timeout)?;
        conn.set_write_timeout(timeout)?;
        Ok(Client {
            conn,
            tenant: tenant.to_owned(),
        })
    }

    fn call(&mut self, req: &Request) -> ClientResult<Response> {
        send_frame(&mut self.conn, |b| req.encode_into(b))?;
        let frame = read_frame(&mut self.conn)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))
        })?;
        let resp = Response::decode(&frame).map_err(ClientError::Decode)?;
        if let Response::Error {
            code,
            message,
            retry_after_ms,
        } = resp
        {
            return Err(ClientError::Server {
                code,
                message,
                retry_after_ms,
            });
        }
        Ok(resp)
    }

    /// Runs `op` with bounded retries on retryable server errors
    /// (`Busy`, `Timeout`, `Retryable`): sleeps the larger of the
    /// policy's jittered exponential backoff and the server's
    /// `retry_after_ms` hint between attempts. Non-retryable errors
    /// (and exhaustion) surface unchanged.
    ///
    /// Only idempotent operations belong here — every Brook service
    /// request qualifies (kernels never read their own output, so
    /// re-running a launch recomputes the same values).
    ///
    /// # Errors
    /// The last attempt's error once the budget is spent, or the first
    /// non-retryable error.
    pub fn with_retry<T>(
        &mut self,
        policy: &RetryPolicy,
        mut op: impl FnMut(&mut Client) -> ClientResult<T>,
    ) -> ClientResult<T> {
        let backoff = Backoff::new(policy.backoff_base_ms, policy.backoff_cap_ms, policy.seed);
        let attempts = policy.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            match op(self) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() && attempt + 1 < attempts => {
                    let pause = backoff
                        .delay(attempt)
                        .max(Duration::from_millis(e.retry_after_ms().unwrap_or(0)));
                    std::thread::sleep(pause);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Compiles Brook source (or fetches it from the shared cache),
    /// returning a module handle.
    ///
    /// # Errors
    /// Transport, compile, certification or admission failures.
    pub fn compile(&mut self, source: &str) -> ClientResult<u64> {
        match self.call(&Request::Compile {
            tenant: self.tenant.clone(),
            source: source.to_owned(),
        })? {
            Response::Handle(h) => Ok(h),
            other => Err(ClientError::UnexpectedReply(other)),
        }
    }

    /// Allocates a stream of `floatN` elements.
    ///
    /// # Errors
    /// Transport, usage or admission failures.
    pub fn create_stream(&mut self, shape: &[u32], width: u8) -> ClientResult<u64> {
        match self.call(&Request::CreateStream {
            tenant: self.tenant.clone(),
            shape: shape.to_vec(),
            width,
        })? {
            Response::Handle(h) => Ok(h),
            other => Err(ClientError::UnexpectedReply(other)),
        }
    }

    /// Uploads values into a stream.
    ///
    /// # Errors
    /// Transport or usage failures.
    pub fn write(&mut self, stream: u64, data: &[f32]) -> ClientResult<()> {
        match self.call(&Request::Write {
            tenant: self.tenant.clone(),
            stream,
            data: data.to_vec(),
        })? {
            Response::Ok => Ok(()),
            other => Err(ClientError::UnexpectedReply(other)),
        }
    }

    /// Downloads a stream.
    ///
    /// # Errors
    /// Transport or usage failures.
    pub fn read(&mut self, stream: u64) -> ClientResult<Vec<f32>> {
        match self.call(&Request::Read {
            tenant: self.tenant.clone(),
            stream,
        })? {
            Response::Data(d) => Ok(d),
            other => Err(ClientError::UnexpectedReply(other)),
        }
    }

    /// Launches a kernel over its output domain.
    ///
    /// # Errors
    /// Transport, usage, device or admission failures.
    pub fn run(&mut self, module: u64, kernel: &str, args: &[WireArg]) -> ClientResult<()> {
        match self.call(&Request::Run {
            tenant: self.tenant.clone(),
            module,
            kernel: kernel.to_owned(),
            args: args.to_vec(),
        })? {
            Response::Ok => Ok(()),
            other => Err(ClientError::UnexpectedReply(other)),
        }
    }

    /// Folds a stream to a scalar with a reduce kernel.
    ///
    /// # Errors
    /// Transport, usage, device or admission failures.
    pub fn reduce(&mut self, module: u64, kernel: &str, stream: u64) -> ClientResult<f32> {
        match self.call(&Request::Reduce {
            tenant: self.tenant.clone(),
            module,
            kernel: kernel.to_owned(),
            stream,
        })? {
            Response::Scalar(v) => Ok(v),
            other => Err(ClientError::UnexpectedReply(other)),
        }
    }

    /// Releases a stream and its admission charge.
    ///
    /// # Errors
    /// Transport failures or an unknown handle.
    pub fn drop_stream(&mut self, stream: u64) -> ClientResult<()> {
        match self.call(&Request::DropStream {
            tenant: self.tenant.clone(),
            stream,
        })? {
            Response::Ok => Ok(()),
            other => Err(ClientError::UnexpectedReply(other)),
        }
    }

    /// Server-wide counters as name/value pairs.
    ///
    /// # Errors
    /// Transport failures.
    pub fn stats(&mut self) -> ClientResult<Vec<(String, u64)>> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(ClientError::UnexpectedReply(other)),
        }
    }
}
