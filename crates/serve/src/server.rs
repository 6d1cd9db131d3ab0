//! The sharded multi-tenant execution server.
//!
//! Std-only, no async runtime: a listener thread accepts connections,
//! and each connection gets a thread that reads its requests, executes
//! them and writes the replies. Tenants are hashed onto *shards*; a
//! shard is a lock around the state of its tenants — each tenant's
//! [`BrookContext`], module and stream tables, admission ledger — and
//! the shard's circuit breaker. A request runs only while its thread
//! holds the tenant's shard lock, so each tenant is owned by exactly one
//! thread at a time and tenant code needs no locking of its own; the
//! other shared structures are the compiled-module cache, the stats
//! counters and the launch watchdog.
//!
//! Request flow per frame: decode → shard lock (bounded: a request that
//! finds `queue_depth` threads already waiting for its shard is
//! answered `Busy` at once and never waits; the client backs off) →
//! breaker and admission control from static artifacts → execute under
//! a panic shield → reply, written by the same thread. No request
//! crosses a thread boundary, so a request costs no channel and no
//! thread wakeup.

use crate::admission::{Admission, AdmissionConfig, AdmissionError};
use crate::cache::{hash_source, CacheKey, ModuleCache};
use crate::wire::{read_frame, send_frame, ErrorCode, Request, Response, WireArg};
use brook_auto::{
    registered_backends, Arg, BrookContext, BrookError, BrookModule, CancelToken, FaultPlan, ModuleArtifact,
    ResiliencePolicy, Stream,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Back-off hint attached to `Busy` (shed-load) replies: the queue
/// drains in single-digit milliseconds under normal load.
const BUSY_RETRY_HINT_MS: u64 = 5;

/// Per-shard circuit breaker configuration. The breaker replaces
/// *permanent* degradation after repeated panics with a supervised
/// recovery cycle: `Closed` (healthy) → `Open` after
/// `failure_threshold` consecutive caught panics (requests are shed
/// with a `Retryable` + `retry_after_ms` reply for `cooldown`) →
/// `HalfOpen` (exactly one probe request runs) → `Closed` on probe
/// success, back to `Open` on probe failure.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Consecutive caught panics that trip the breaker.
    pub failure_threshold: u32,
    /// How long an open breaker sheds requests before probing.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(250),
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Backend every tenant context executes on — a name from
    /// [`brook_auto::registered_backends`].
    pub backend: &'static str,
    /// Number of shards tenants are hashed across. Requests for tenants
    /// on different shards run concurrently; a shard is a lock, not a
    /// thread — requests execute on their connection's thread.
    pub shards: usize,
    /// How many connection threads may wait for a shard's lock while
    /// another runs on it. A request that finds this many already
    /// waiting is answered `Busy` at once instead of queueing.
    pub queue_depth: usize,
    /// Per-tenant admission limits.
    pub admission: AdmissionConfig,
    /// Device memory budget installed on each tenant context
    /// (`set_memory_budget`) — the runtime half of BA002. `None` leaves
    /// the device unbudgeted.
    pub device_memory_budget: Option<usize>,
    /// Per-launch deadline enforced by the server-wide watchdog thread.
    /// It counts from when a `Run`/`Reduce` is decoded, so it covers the
    /// wait for the shard lock as well as execution. A launch whose
    /// deadline passes while it waits is answered `Timeout` without
    /// executing; a running launch has its context's cancel token fired,
    /// which cuts injected hangs and backoff sleeps short, and is
    /// answered `Timeout` when it returns. Work that cannot be cancelled
    /// is answered when it returns, not at the deadline; admission's
    /// per-launch cost ceiling bounds how long that can be. `None`
    /// disables the watchdog and starts no thread for it.
    pub launch_deadline: Option<Duration>,
    /// Per-shard circuit breaker over caught panics. `None` preserves
    /// the pre-breaker behavior: a panic discards the tenant, nothing
    /// cools down, nothing probes.
    pub breaker: Option<BreakerConfig>,
    /// Deterministic fault plan armed on each tenant's *first* context
    /// (a context re-created after poisoning starts clean, so an
    /// injected fault schedule cannot wedge a tenant forever). Test
    /// harness / fault-drill knob; `None` in production.
    pub fault_plan: Option<FaultPlan>,
    /// Recovery policy installed on every tenant context: in-context
    /// retry/backoff, panic containment, verified CPU failover. `None`
    /// leaves recovery to the serve layer (panic shield + breaker).
    pub resilience: Option<ResiliencePolicy>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            backend: "cpu",
            shards: std::thread::available_parallelism().map_or(2, |n| n.get().min(4)),
            queue_depth: 64,
            admission: AdmissionConfig::default(),
            device_memory_budget: None,
            launch_deadline: None,
            breaker: None,
            fault_plan: None,
            resilience: None,
        }
    }
}

/// Service-wide counters, shared across shards and connections.
#[derive(Debug, Default)]
pub struct Stats {
    /// Frames decoded into requests.
    pub requests: AtomicU64,
    /// Replies carrying an error.
    pub errors: AtomicU64,
    /// Requests refused by admission control.
    pub admission_rejected: AtomicU64,
    /// Requests shed because `queue_depth` threads already waited for
    /// their shard.
    pub busy_rejected: AtomicU64,
    /// Panics caught by the panic shield (the zero-panic gate reads
    /// this; anything nonzero is a toolchain bug surfaced as `Internal`
    /// errors, never a process abort).
    pub panics: AtomicU64,
    /// Kernel launches executed.
    pub runs: AtomicU64,
    /// Launches that waited for their shard's lock behind a launch of
    /// the same `(tenant, module, kernel)`, so the two ran back to back
    /// over the same pre-compiled chains. Nothing is batched: each
    /// launch still executes on its own.
    pub coalesced_runs: AtomicU64,
    /// Launches answered `Timeout` by the watchdog (deadline exceeded
    /// while waiting for the shard or while running).
    pub timeouts: AtomicU64,
    /// In-context transient retries performed by the recovery ladder.
    pub retries: AtomicU64,
    /// Verified backend failovers performed by the recovery ladder.
    pub failovers: AtomicU64,
    /// Corruptions caught by redundant execution.
    pub corruptions_detected: AtomicU64,
    /// Requests shed because a shard's breaker was open.
    pub breaker_rejected: AtomicU64,
    /// Closed/half-open → open transitions.
    pub breaker_trips: AtomicU64,
    /// Half-open probe requests admitted.
    pub breaker_probes: AtomicU64,
}

impl Stats {
    fn snapshot(&self, cache: &ModuleCache) -> Vec<(String, u64)> {
        let (hits, misses) = cache.stats();
        vec![
            ("requests".into(), self.requests.load(Ordering::Relaxed)),
            ("errors".into(), self.errors.load(Ordering::Relaxed)),
            (
                "admission_rejected".into(),
                self.admission_rejected.load(Ordering::Relaxed),
            ),
            ("busy_rejected".into(), self.busy_rejected.load(Ordering::Relaxed)),
            ("panics".into(), self.panics.load(Ordering::Relaxed)),
            ("runs".into(), self.runs.load(Ordering::Relaxed)),
            (
                "coalesced_runs".into(),
                self.coalesced_runs.load(Ordering::Relaxed),
            ),
            ("timeouts".into(), self.timeouts.load(Ordering::Relaxed)),
            ("retries".into(), self.retries.load(Ordering::Relaxed)),
            ("failovers".into(), self.failovers.load(Ordering::Relaxed)),
            (
                "corruptions_detected".into(),
                self.corruptions_detected.load(Ordering::Relaxed),
            ),
            (
                "breaker_rejected".into(),
                self.breaker_rejected.load(Ordering::Relaxed),
            ),
            ("breaker_trips".into(), self.breaker_trips.load(Ordering::Relaxed)),
            (
                "breaker_probes".into(),
                self.breaker_probes.load(Ordering::Relaxed),
            ),
            ("cache_hits".into(), hits),
            ("cache_misses".into(), misses),
        ]
    }
}

/// Per-shard circuit breaker over caught panics (see [`BreakerConfig`]).
/// Lives in its shard's state, under the shard lock.
struct Breaker {
    config: Option<BreakerConfig>,
    consecutive_failures: u32,
    state: BreakerState,
}

#[derive(Debug, PartialEq)]
enum BreakerState {
    Closed,
    Open { until: Instant },
    HalfOpen,
}

/// Admission verdict for one request against the shard's breaker.
enum BreakerAdmit {
    /// Execute normally.
    Proceed,
    /// Execute as the half-open probe (its outcome decides the state).
    Probe,
    /// Shed: the breaker is open for `retry_after` more.
    Shed { retry_after: Duration },
}

impl Breaker {
    fn new(config: Option<BreakerConfig>) -> Breaker {
        Breaker {
            config,
            consecutive_failures: 0,
            state: BreakerState::Closed,
        }
    }

    fn admit(&mut self, now: Instant) -> BreakerAdmit {
        if self.config.is_none() {
            return BreakerAdmit::Proceed;
        }
        match self.state {
            BreakerState::Closed => BreakerAdmit::Proceed,
            BreakerState::Open { until } if now < until => BreakerAdmit::Shed {
                retry_after: until - now,
            },
            // Cooldown elapsed (or a probe is somehow already due):
            // admit exactly one probe.
            BreakerState::Open { .. } | BreakerState::HalfOpen => {
                self.state = BreakerState::HalfOpen;
                BreakerAdmit::Probe
            }
        }
    }

    /// Records a request outcome. Returns `true` when this outcome tripped
    /// the breaker (for the `breaker_trips` counter).
    fn record(&mut self, probe: bool, panicked: bool, now: Instant) -> bool {
        let Some(config) = &self.config else { return false };
        if panicked {
            self.consecutive_failures += 1;
            if probe || self.consecutive_failures >= config.failure_threshold {
                self.state = BreakerState::Open {
                    until: now + config.cooldown,
                };
                self.consecutive_failures = 0;
                return true;
            }
        } else {
            self.consecutive_failures = 0;
            if probe {
                self.state = BreakerState::Closed;
            }
        }
        false
    }
}

/// All state of one tenant, guarded by its shard's lock.
struct Tenant {
    ctx: BrookContext,
    /// Module handle → adopted module + the artifact it came from (the
    /// artifact carries the static report admission budgets against).
    modules: HashMap<u64, (BrookModule, Arc<ModuleArtifact>)>,
    /// Stream handle → stream + admission charge + element count.
    streams: HashMap<u64, (Stream, usize, usize)>,
    admission: Admission,
    next_handle: u64,
}

impl Tenant {
    fn fresh_handle(&mut self) -> u64 {
        self.next_handle += 1;
        self.next_handle
    }
}

/// The state of one shard's tenants, guarded by the shard lock.
struct ShardState {
    tenants: HashMap<String, Tenant>,
    /// Tenant names whose first context already consumed the configured
    /// fault plan (see `ServerConfig::fault_plan`).
    plan_armed: HashSet<String>,
    breaker: Breaker,
    /// `(tenant, module, kernel)` of the request that last held the lock
    /// when it was a launch (`None` after any other request).
    last_launch: Option<(String, u64, String)>,
}

impl ShardState {
    /// Records which request holds the lock now; true when it is a
    /// launch of the same `(tenant, module, kernel)` as the previous
    /// holder.
    fn follows_same_launch(&mut self, request: &Request) -> bool {
        let Request::Run {
            tenant,
            module,
            kernel,
            ..
        } = request
        else {
            self.last_launch = None;
            return false;
        };
        match &self.last_launch {
            Some((t, m, k)) if t == tenant && m == module && k == kernel => true,
            _ => {
                self.last_launch = Some((tenant.clone(), *module, kernel.clone()));
                false
            }
        }
    }

    /// Breaker admission, then the request under the panic shield, then
    /// the outcome recorded on the breaker.
    fn serve(&mut self, request: &Request, cancel: Option<&CancelToken>, svc: &Service) -> Response {
        let stats = &svc.stats;
        let admit = match self.breaker.admit(Instant::now()) {
            BreakerAdmit::Shed { retry_after } => {
                stats.breaker_rejected.fetch_add(1, Ordering::Relaxed);
                return Response::error_with_retry(
                    ErrorCode::Retryable,
                    "shard breaker is open (cooling down after repeated panics)",
                    (retry_after.as_millis() as u64).max(1),
                );
            }
            admit => admit,
        };
        let probe = matches!(admit, BreakerAdmit::Probe);
        if probe {
            stats.breaker_probes.fetch_add(1, Ordering::Relaxed);
        }
        let (response, panicked) = shielded_handle(
            &mut self.tenants,
            &mut self.plan_armed,
            request,
            cancel,
            &svc.config,
            stats,
            &svc.cache,
        );
        if self.breaker.record(probe, panicked, Instant::now()) {
            stats.breaker_trips.fetch_add(1, Ordering::Relaxed);
        }
        response
    }
}

/// One shard: the lock its tenants' requests run under, and the count
/// that bounds how many threads may wait for it.
struct Shard {
    state: Mutex<ShardState>,
    /// Connection threads running on this shard or waiting for its lock.
    pending: AtomicUsize,
}

/// A connection thread's place on a shard, counted in
/// [`Shard::pending`] until dropped.
struct Slot<'s>(&'s AtomicUsize);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Shard {
    fn new(config: &ServerConfig) -> Shard {
        Shard {
            state: Mutex::new(ShardState {
                tenants: HashMap::new(),
                plan_armed: HashSet::new(),
                breaker: Breaker::new(config.breaker.clone()),
                last_launch: None,
            }),
            pending: AtomicUsize::new(0),
        }
    }

    /// Claims a place among the threads running on or waiting for this
    /// shard: one may run and `queue_depth` may wait. `None` when the
    /// shard is saturated.
    fn enter(&self, queue_depth: usize) -> Option<Slot<'_>> {
        let ahead = self.pending.fetch_add(1, Ordering::AcqRel);
        let slot = Slot(&self.pending);
        (ahead <= queue_depth.max(1)).then_some(slot)
    }

    /// Takes the shard lock. The flag tells whether another thread held
    /// it, so the caller had to wait. Panics are caught inside the lock,
    /// so it is never poisoned in practice; a poisoned lock is taken
    /// anyway.
    fn lock(&self) -> (MutexGuard<'_, ShardState>, bool) {
        match self.state.try_lock() {
            Ok(state) => (state, false),
            Err(TryLockError::Poisoned(p)) => (p.into_inner(), false),
            Err(TryLockError::WouldBlock) => {
                (self.state.lock().unwrap_or_else(PoisonError::into_inner), true)
            }
        }
    }
}

/// Launches registered with the watchdog, in deadline order; the
/// `u64` keeps equal instants apart.
#[derive(Default)]
struct Registry {
    launches: BTreeMap<(Instant, u64), CancelToken>,
    next_id: u64,
    closed: bool,
}

/// What the watchdog thread and the connection threads share.
#[derive(Default)]
struct WatchdogShared {
    registry: Mutex<Registry>,
    closed: Condvar,
}

impl WatchdogShared {
    fn registry(&self) -> MutexGuard<'_, Registry> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The server-wide launch watchdog: one thread that fires the cancel
/// token of every registered launch whose deadline has passed.
///
/// Every launch gets the same deadline, so a new registration is never
/// due before the earliest one already registered: the thread sleeps
/// until that earliest deadline, or for one deadline period when
/// nothing is registered, and never needs waking.
struct Watchdog {
    deadline: Duration,
    shared: Arc<WatchdogShared>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    fn start(deadline: Duration) -> Watchdog {
        let shared = Arc::new(WatchdogShared::default());
        let idle = deadline.max(Duration::from_millis(1));
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::spawn(move || {
            let mut registry = thread_shared.registry();
            while !registry.closed {
                let now = Instant::now();
                while let Some(due) = registry.launches.first_entry().filter(|e| e.key().0 <= now) {
                    due.remove().cancel();
                }
                let sleep = registry
                    .launches
                    .first_key_value()
                    .map_or(idle, |((at, _), _)| *at - now);
                registry = thread_shared
                    .closed
                    .wait_timeout(registry, sleep)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        });
        Watchdog {
            deadline,
            shared,
            thread: Some(thread),
        }
    }

    /// Registers a launch whose deadline starts now.
    fn watch(&self) -> Watch<'_> {
        let token = CancelToken::new();
        let mut registry = self.shared.registry();
        let key = (Instant::now() + self.deadline, registry.next_id);
        registry.next_id += 1;
        registry.launches.insert(key, token.clone());
        Watch {
            watchdog: self,
            key,
            token,
        }
    }

    fn timeout_reply(&self) -> Response {
        Response::error(
            ErrorCode::Timeout,
            format!("launch exceeded its {} ms deadline", self.deadline.as_millis()),
        )
    }

    #[cfg(test)]
    fn registered(&self) -> usize {
        self.shared.registry().launches.len()
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.shared.registry().closed = true;
        self.shared.closed.notify_all();
        if let Some(thread) = self.thread.take() {
            // The loop only sleeps and fires tokens; it cannot panic.
            let _ = thread.join();
        }
    }
}

/// One launch's registration with the watchdog; deregisters on drop.
struct Watch<'w> {
    watchdog: &'w Watchdog,
    key: (Instant, u64),
    token: CancelToken,
}

impl Watch<'_> {
    /// Whether the launch's deadline has passed.
    fn fired(&self) -> bool {
        self.token.is_cancelled()
    }
}

impl Drop for Watch<'_> {
    fn drop(&mut self) {
        self.watchdog.shared.registry().launches.remove(&self.key);
    }
}

/// Everything the connection threads share.
struct Service {
    config: ServerConfig,
    shards: Vec<Shard>,
    stats: Stats,
    cache: ModuleCache,
    watchdog: Option<Watchdog>,
}

impl Service {
    /// Connection loop: frame → decode → execute → reply, all on this
    /// connection's thread.
    fn serve_connection(&self, mut conn: TcpStream) {
        loop {
            let frame = match read_frame(&mut conn) {
                Ok(Some(f)) => f,
                Ok(None) | Err(_) => return, // clean EOF or dead socket
            };
            self.stats.requests.fetch_add(1, Ordering::Relaxed);
            let reply = match Request::decode(&frame) {
                Err(e) => Response::error(ErrorCode::Malformed, e.to_string()),
                // Stats is tenant-less: answered without a shard.
                Ok(Request::Stats) => Response::Stats(self.stats.snapshot(&self.cache)),
                Ok(request) => self.execute(&request),
            };
            if matches!(reply, Response::Error { .. }) {
                self.stats.errors.fetch_add(1, Ordering::Relaxed);
            }
            if send_frame(&mut conn, |b| reply.encode_into(b)).is_err() {
                return;
            }
        }
    }

    /// Runs one tenant request on the calling thread under its shard's
    /// lock. A `Run`/`Reduce` registers with the watchdog before it
    /// waits for the lock; if its deadline passes before the lock is
    /// taken it is answered `Timeout` without executing, and if it
    /// passes during execution the cancelled launch is answered
    /// `Timeout` once it returns.
    fn execute(&self, request: &Request) -> Response {
        let shard_no = shard_of(request.tenant().unwrap_or(""), self.shards.len());
        let shard = &self.shards[shard_no];
        let Some(_slot) = shard.enter(self.config.queue_depth) else {
            self.stats.busy_rejected.fetch_add(1, Ordering::Relaxed);
            return Response::error_with_retry(
                ErrorCode::Busy,
                format!("shard {shard_no} queue is full; retry"),
                BUSY_RETRY_HINT_MS,
            );
        };
        let watch = match request {
            Request::Run { .. } | Request::Reduce { .. } => self.watchdog.as_ref().map(Watchdog::watch),
            _ => None,
        };
        let (mut state, waited) = shard.lock();
        if let Some(reply) = self.timed_out(watch.as_ref()) {
            return reply;
        }
        if state.follows_same_launch(request) && waited {
            self.stats.coalesced_runs.fetch_add(1, Ordering::Relaxed);
        }
        let response = state.serve(request, watch.as_ref().map(|w| &w.token), self);
        drop(state);
        self.timed_out(watch.as_ref()).unwrap_or(response)
    }

    /// The counted `Timeout` reply for a watched launch whose deadline
    /// has passed.
    fn timed_out(&self, watch: Option<&Watch<'_>>) -> Option<Response> {
        let watch = watch.filter(|w| w.fired())?;
        self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
        Some(watch.watchdog.timeout_reply())
    }
}

/// A running service instance. Dropping the handle after
/// [`shutdown`](Server::shutdown) (or letting tests drop their clients)
/// winds the threads down.
pub struct Server {
    addr: SocketAddr,
    service: Arc<Service>,
    stopping: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds a TCP listener (use port 0 for an ephemeral port) and
    /// starts the acceptor thread, plus the watchdog thread when
    /// [`ServerConfig::launch_deadline`] is set. No thread is spawned
    /// per shard.
    ///
    /// # Errors
    /// Socket errors, or an unknown backend name.
    pub fn start(addr: &str, config: ServerConfig) -> io::Result<Server> {
        if !registered_backends().iter().any(|b| b.name == config.backend) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown backend `{}`", config.backend),
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let service = Arc::new(Service {
            shards: (0..config.shards.max(1)).map(|_| Shard::new(&config)).collect(),
            stats: Stats::default(),
            cache: ModuleCache::new(),
            watchdog: config.launch_deadline.map(Watchdog::start),
            config,
        });
        let stopping = Arc::new(AtomicBool::new(false));

        let acceptor = {
            let service = Arc::clone(&service);
            let stopping = Arc::clone(&stopping);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stopping.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(conn) = conn else { continue };
                    // Replies are small frames in a request/reply
                    // ping-pong: without nodelay every exchange eats a
                    // delayed-ACK round (~40 ms).
                    let _ = conn.set_nodelay(true);
                    let service = Arc::clone(&service);
                    std::thread::spawn(move || service.serve_connection(conn));
                }
            })
        };

        Ok(Server {
            addr,
            service,
            stopping,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolve the ephemeral port for clients).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> Vec<(String, u64)> {
        self.service.stats.snapshot(&self.service.cache)
    }

    /// Stops accepting connections and unblocks the acceptor. Existing
    /// connections finish their in-flight request and wind down when
    /// clients disconnect.
    pub fn shutdown(mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

/// Stable tenant → shard assignment.
fn shard_of(tenant: &str, shards: usize) -> usize {
    let mut h = DefaultHasher::new();
    tenant.hash(&mut h);
    (h.finish() % shards as u64) as usize
}

/// Executes one request under the panic shield: a caught panic becomes
/// an `Internal` error reply and poisons (drops) the tenant whose state
/// can no longer be trusted — the *process* keeps serving. The second
/// return is the panic flag the shard's breaker records.
fn shielded_handle(
    tenants: &mut HashMap<String, Tenant>,
    plan_armed: &mut HashSet<String>,
    request: &Request,
    cancel: Option<&CancelToken>,
    config: &ServerConfig,
    stats: &Stats,
    cache: &ModuleCache,
) -> (Response, bool) {
    match catch_unwind(AssertUnwindSafe(|| {
        handle_request(tenants, plan_armed, request, cancel, config, stats, cache)
    })) {
        Ok(r) => (r, false),
        Err(_) => {
            stats.panics.fetch_add(1, Ordering::Relaxed);
            if let Some(tenant) = request.tenant() {
                tenants.remove(tenant);
            }
            (
                Response::error(ErrorCode::Internal, "request panicked; tenant state discarded"),
                true,
            )
        }
    }
}

fn brook_error_response(e: BrookError) -> Response {
    let code = match &e {
        BrookError::FrontEnd(_) => ErrorCode::Compile,
        BrookError::Certification(_) => ErrorCode::Certification,
        BrookError::Codegen(_) | BrookError::Gl(_) => ErrorCode::Device,
        BrookError::Usage(_) => ErrorCode::Usage,
        BrookError::Internal(_) => ErrorCode::Internal,
        BrookError::Timeout(_) => ErrorCode::Timeout,
        // Device loss that escaped the in-context recovery ladder:
        // transient from the client's perspective (re-dispatch is
        // idempotent and the ladder/failover may succeed next time).
        BrookError::DeviceLost(_) => ErrorCode::Retryable,
    };
    Response::error(code, e.to_string())
}

fn admission_response(e: AdmissionError) -> Response {
    Response::error(ErrorCode::AdmissionRejected, e.to_string())
}

fn tenant_entry<'t>(
    tenants: &'t mut HashMap<String, Tenant>,
    plan_armed: &mut HashSet<String>,
    name: &str,
    config: &ServerConfig,
) -> &'t mut Tenant {
    // Look up before inserting: `entry` would allocate the name on
    // every request.
    if !tenants.contains_key(name) {
        let tenant = new_tenant(plan_armed, name, config);
        tenants.insert(name.to_owned(), tenant);
    }
    tenants.get_mut(name).expect("inserted above")
}

fn new_tenant(plan_armed: &mut HashSet<String>, name: &str, config: &ServerConfig) -> Tenant {
    let spec = registered_backends()
        .into_iter()
        .find(|b| b.name == config.backend)
        .expect("backend validated at Server::start");
    let mut ctx = (spec.make)();
    ctx.set_memory_budget(config.device_memory_budget);
    if let Some(policy) = &config.resilience {
        ctx.set_resilience(policy.clone())
            .expect("fresh context has no streams to snapshot");
    }
    // Arm the fault plan only on the tenant's *first* context: a
    // context rebuilt after poisoning starts clean, so an injected
    // schedule cannot wedge the tenant forever.
    if let Some(plan) = &config.fault_plan {
        if plan_armed.insert(name.to_owned()) {
            ctx.set_fault_plan(plan.clone());
        }
    }
    Tenant {
        ctx,
        modules: HashMap::new(),
        streams: HashMap::new(),
        admission: Admission::new(config.admission),
        next_handle: 0,
    }
}

/// Folds the recovery ladder's per-launch evidence into the service
/// counters after a `Run`/`Reduce`.
fn drain_resilience(t: &mut Tenant, stats: &Stats) {
    for rec in t.ctx.take_resilience_records() {
        stats.retries.fetch_add(rec.retries as u64, Ordering::Relaxed);
        stats
            .corruptions_detected
            .fetch_add(rec.corruptions_detected as u64, Ordering::Relaxed);
        if rec.failover.is_some() {
            stats.failovers.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn handle_request(
    tenants: &mut HashMap<String, Tenant>,
    plan_armed: &mut HashSet<String>,
    request: &Request,
    cancel: Option<&CancelToken>,
    config: &ServerConfig,
    stats: &Stats,
    cache: &ModuleCache,
) -> Response {
    match request {
        Request::Stats => unreachable!("answered without a shard"),
        Request::Compile { tenant, source } => {
            let t = tenant_entry(tenants, plan_armed, tenant, config);
            let key = CacheKey {
                source_hash: hash_source(source),
                cert_fingerprint: t.ctx.cert_config().fingerprint(),
                backend: config.backend,
            };
            let artifact = match cache.get_or_compile(key, || t.ctx.compile_artifact(source)) {
                Ok(a) => a,
                Err(e) => return brook_error_response(e),
            };
            let module = match t.ctx.adopt_artifact(&artifact) {
                Ok(m) => m,
                Err(e) => return brook_error_response(e),
            };
            let handle = t.fresh_handle();
            t.modules.insert(handle, (module, artifact));
            Response::Handle(handle)
        }
        Request::CreateStream { tenant, shape, width } => {
            let t = tenant_entry(tenants, plan_armed, tenant, config);
            let shape: Vec<usize> = shape.iter().map(|d| *d as usize).collect();
            let charge = match t.admission.admit_stream(&shape, *width) {
                Ok(c) => c,
                Err(e) => {
                    stats.admission_rejected.fetch_add(1, Ordering::Relaxed);
                    return admission_response(e);
                }
            };
            match t.ctx.stream_with_width(&shape, *width) {
                Ok(s) => {
                    let elems = shape.iter().product::<usize>() * *width as usize;
                    let handle = t.fresh_handle();
                    t.streams.insert(handle, (s, charge, elems));
                    Response::Handle(handle)
                }
                Err(e) => {
                    t.admission.release_stream(charge);
                    brook_error_response(e)
                }
            }
        }
        Request::Write { tenant, stream, data } => {
            let t = tenant_entry(tenants, plan_armed, tenant, config);
            let Some((s, _, _)) = t.streams.get(stream) else {
                return unknown_handle("stream", *stream);
            };
            let s = *s;
            match t.ctx.write(&s, data) {
                Ok(()) => Response::Ok,
                Err(e) => brook_error_response(e),
            }
        }
        Request::Read { tenant, stream } => {
            let t = tenant_entry(tenants, plan_armed, tenant, config);
            let Some((s, _, _)) = t.streams.get(stream) else {
                return unknown_handle("stream", *stream);
            };
            let s = *s;
            match t.ctx.read(&s) {
                Ok(data) => Response::Data(data),
                Err(e) => brook_error_response(e),
            }
        }
        Request::Run {
            tenant,
            module,
            kernel,
            args,
        } => {
            let t = tenant_entry(tenants, plan_armed, tenant, config);
            let Some((m, artifact)) = t.modules.get(module) else {
                return unknown_handle("module", *module);
            };
            if !artifact.kernels().iter().any(|k| k == kernel) {
                return Response::error(ErrorCode::Usage, format!("module has no kernel `{kernel}`"));
            }
            // Admission: charge the launch at the largest bound
            // stream's element count — a static upper bound on the
            // output domain (every output is one of the bound streams).
            let mut domain_elems: u64 = 0;
            let mut bound: Vec<Arg<'_>> = Vec::with_capacity(args.len());
            for a in args {
                match a {
                    WireArg::Stream(h) => {
                        let Some((s, _, elems)) = t.streams.get(h) else {
                            return unknown_handle("stream", *h);
                        };
                        domain_elems = domain_elems.max(*elems as u64);
                        bound.push(Arg::Stream(s));
                    }
                    WireArg::Float(v) => bound.push(Arg::Float(*v)),
                    WireArg::Int(v) => bound.push(Arg::Int(*v)),
                    WireArg::Float4(v) => bound.push(Arg::Float4(*v)),
                }
            }
            if let Err(e) = t.admission.admit_launch(artifact, kernel, domain_elems) {
                stats.admission_rejected.fetch_add(1, Ordering::Relaxed);
                return admission_response(e);
            }
            if let Some(tok) = cancel {
                t.ctx.set_cancel_token(tok.clone());
            }
            let m = m.clone();
            let result = t.ctx.run(&m, kernel, &bound);
            drain_resilience(t, stats);
            match result {
                Ok(()) => {
                    stats.runs.fetch_add(1, Ordering::Relaxed);
                    Response::Ok
                }
                Err(e) => brook_error_response(e),
            }
        }
        Request::Reduce {
            tenant,
            module,
            kernel,
            stream,
        } => {
            let t = tenant_entry(tenants, plan_armed, tenant, config);
            let Some((m, artifact)) = t.modules.get(module) else {
                return unknown_handle("module", *module);
            };
            if !artifact.kernels().iter().any(|k| k == kernel) {
                return Response::error(ErrorCode::Usage, format!("module has no kernel `{kernel}`"));
            }
            let Some((s, _, elems)) = t.streams.get(stream) else {
                return unknown_handle("stream", *stream);
            };
            if let Err(e) = t.admission.admit_launch(artifact, kernel, *elems as u64) {
                stats.admission_rejected.fetch_add(1, Ordering::Relaxed);
                return admission_response(e);
            }
            if let Some(tok) = cancel {
                t.ctx.set_cancel_token(tok.clone());
            }
            let (m, s) = (m.clone(), *s);
            let result = t.ctx.reduce(&m, kernel, &s);
            drain_resilience(t, stats);
            match result {
                Ok(v) => Response::Scalar(v),
                Err(e) => brook_error_response(e),
            }
        }
        Request::DropStream { tenant, stream } => {
            let t = tenant_entry(tenants, plan_armed, tenant, config);
            match t.streams.remove(stream) {
                Some((_, charge, _)) => {
                    t.admission.release_stream(charge);
                    Response::Ok
                }
                None => unknown_handle("stream", *stream),
            }
        }
    }
}

fn unknown_handle(kind: &str, handle: u64) -> Response {
    Response::error(ErrorCode::Malformed, format!("unknown {kind} handle {handle}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenants_hash_stably_within_bounds() {
        for shards in 1..8 {
            for t in ["a", "tenant-1", "tenant-2", ""] {
                let s = shard_of(t, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(t, shards), "stable");
            }
        }
    }

    #[test]
    fn breaker_lifecycle_state_machine() {
        let t0 = Instant::now();
        let cfg = BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(100),
        };
        let mut b = Breaker::new(Some(cfg));
        // Closed: failures below the threshold don't trip.
        assert!(matches!(b.admit(t0), BreakerAdmit::Proceed));
        assert!(!b.record(false, true, t0));
        assert!(matches!(b.admit(t0), BreakerAdmit::Proceed));
        // A success in between resets the consecutive count.
        assert!(!b.record(false, false, t0));
        assert!(!b.record(false, true, t0));
        // Second consecutive panic: trip.
        assert!(b.record(false, true, t0));
        // Open: shed with a positive remaining cooldown.
        match b.admit(t0 + Duration::from_millis(10)) {
            BreakerAdmit::Shed { retry_after } => {
                assert_eq!(retry_after, Duration::from_millis(90));
            }
            _ => panic!("open breaker must shed"),
        }
        // Cooldown over: exactly one probe is admitted.
        let t1 = t0 + Duration::from_millis(150);
        assert!(matches!(b.admit(t1), BreakerAdmit::Probe));
        // Probe failure: re-trip immediately (no threshold).
        assert!(b.record(true, true, t1));
        assert!(matches!(b.admit(t1), BreakerAdmit::Shed { .. }));
        // Second probe succeeds: closed again.
        let t2 = t1 + Duration::from_millis(150);
        assert!(matches!(b.admit(t2), BreakerAdmit::Probe));
        assert!(!b.record(true, false, t2));
        assert_eq!(b.state, BreakerState::Closed);
        assert!(matches!(b.admit(t2), BreakerAdmit::Proceed));
    }

    #[test]
    fn disabled_breaker_never_sheds() {
        let mut b = Breaker::new(None);
        let now = Instant::now();
        for _ in 0..10 {
            assert!(!b.record(false, true, now));
            assert!(matches!(b.admit(now), BreakerAdmit::Proceed));
        }
    }

    #[test]
    fn shard_admits_one_runner_and_queue_depth_waiters() {
        let shard = Shard::new(&ServerConfig::default());
        let running = shard.enter(1).expect("runs");
        let waiting = shard.enter(1).expect("waits");
        assert!(shard.enter(1).is_none(), "a second waiter is shed");
        assert_eq!(
            shard.pending.load(Ordering::SeqCst),
            2,
            "a shed request leaves no trace"
        );
        drop(running);
        let _next = shard.enter(1).expect("a freed place is reusable");
        drop(waiting);
        assert_eq!(shard.pending.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn watchdog_fires_due_launches_and_forgets_them() {
        let watchdog = Watchdog::start(Duration::from_millis(20));
        let watch = watchdog.watch();
        assert!(!watch.fired(), "not due yet");
        assert_eq!(watchdog.registered(), 1);
        let started = Instant::now();
        while !watch.fired() {
            assert!(started.elapsed() < Duration::from_secs(5), "watchdog never fired");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(watchdog.registered(), 0, "fired launches leave the registry");
        drop(watch);
        let watch = watchdog.watch();
        drop(watch);
        assert_eq!(watchdog.registered(), 0, "dropping a watch deregisters it");
    }

    #[test]
    fn watchdog_registry_is_empty_after_each_launch() {
        let server = Server::start(
            "127.0.0.1:0",
            ServerConfig {
                launch_deadline: Some(Duration::from_secs(1)),
                ..ServerConfig::default()
            },
        )
        .expect("server starts");
        let registered = || server.service.watchdog.as_ref().expect("watchdog").registered();
        let mut c = crate::Client::connect(server.local_addr(), "t").expect("connect");
        let module = c
            .compile("kernel void saxpy(float x<>, float y<>, float a, out float r<>) { r = a * x + y; }")
            .expect("compile");
        let x = c.create_stream(&[16], 1).expect("x");
        let r = c.create_stream(&[16], 1).expect("r");
        c.write(x, &[1.0; 16]).expect("write");
        let args = [
            WireArg::Stream(x),
            WireArg::Stream(x),
            WireArg::Float(2.0),
            WireArg::Stream(r),
        ];
        for _ in 0..100 {
            c.run(module, "saxpy", &args).expect("run");
            assert_eq!(registered(), 0, "a finished launch is deregistered");
        }
        assert_eq!(c.read(r).expect("read"), vec![3.0; 16]);
        drop(c);
        server.shutdown();
    }

    #[test]
    fn unknown_backend_is_rejected_at_start() {
        let err = match Server::start(
            "127.0.0.1:0",
            ServerConfig {
                backend: "quantum",
                ..ServerConfig::default()
            },
        ) {
            Err(e) => e,
            Ok(_) => panic!("unknown backend must not start"),
        };
        assert!(err.to_string().contains("quantum"));
    }
}
