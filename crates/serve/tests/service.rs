//! End-to-end service tests over real sockets: multi-tenant isolation,
//! shared-cache correctness, admission control and backpressure — all
//! asserted bit-exact against serial single-tenant execution and with
//! the zero-panic gate enforced on every exit path.

use brook_serve::{AdmissionConfig, Client, ClientError, ErrorCode, Server, ServerConfig, WireArg};
use std::collections::HashMap;

const SAXPY: &str = "kernel void saxpy(float x<>, float y<>, float a, out float r<>) { r = a * x + y; }";
const SUM: &str = "reduce void sum(float a<>, reduce float r<>) { r += a; }";

fn start(config: ServerConfig) -> Server {
    Server::start("127.0.0.1:0", config).expect("server starts")
}

fn stat(stats: &[(String, u64)], name: &str) -> u64 {
    stats
        .iter()
        .find(|(k, _)| k == name)
        .unwrap_or_else(|| panic!("stat `{name}` missing"))
        .1
}

/// The serial single-tenant oracle: what the service must reproduce
/// bit-exactly.
fn serial_saxpy(xs: &[f32], ys: &[f32], a: f32) -> Vec<f32> {
    let mut ctx = brook_auto::BrookContext::cpu();
    let module = ctx.compile(SAXPY).expect("compile");
    let x = ctx.stream(&[xs.len()]).expect("x");
    let y = ctx.stream(&[ys.len()]).expect("y");
    let r = ctx.stream(&[xs.len()]).expect("r");
    ctx.write(&x, xs).expect("write");
    ctx.write(&y, ys).expect("write");
    ctx.run(
        &module,
        "saxpy",
        &[
            brook_auto::Arg::Stream(&x),
            brook_auto::Arg::Stream(&y),
            brook_auto::Arg::Float(a),
            brook_auto::Arg::Stream(&r),
        ],
    )
    .expect("run");
    ctx.read(&r).expect("read")
}

#[test]
fn single_tenant_roundtrip() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.local_addr(), "t0").expect("connect");
    let module = c.compile(SAXPY).expect("compile");
    let x = c.create_stream(&[4], 1).expect("x");
    let y = c.create_stream(&[4], 1).expect("y");
    let r = c.create_stream(&[4], 1).expect("r");
    c.write(x, &[1.0, 2.0, 3.0, 4.0]).expect("write x");
    c.write(y, &[0.5; 4]).expect("write y");
    c.run(
        module,
        "saxpy",
        &[
            WireArg::Stream(x),
            WireArg::Stream(y),
            WireArg::Float(2.0),
            WireArg::Stream(r),
        ],
    )
    .expect("run");
    assert_eq!(c.read(r).expect("read"), vec![2.5, 4.5, 6.5, 8.5]);
    assert_eq!(
        c.read(r).expect("read"),
        serial_saxpy(&[1.0, 2.0, 3.0, 4.0], &[0.5; 4], 2.0),
        "bit-exact vs serial execution"
    );
    // Reduce through the same tenant.
    let sum_mod = c.compile(SUM).expect("compile sum");
    assert_eq!(c.reduce(sum_mod, "sum", r).expect("reduce"), 22.0);
    let stats = c.stats().expect("stats");
    assert_eq!(stat(&stats, "panics"), 0);
    assert!(stat(&stats, "requests") >= 9);
    server.shutdown();
}

#[test]
fn concurrent_tenants_are_bit_exact_and_share_the_cache() {
    // ≥2 tenants × ≥4 concurrent clients hammering the same kernel
    // through the shared module cache; every result must equal the
    // serial single-tenant oracle bit for bit.
    let server = start(ServerConfig {
        shards: 4,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    // Warm the cache from one tenant so the concurrent phase exercises
    // the hit path deterministically.
    Client::connect(addr, "warm")
        .expect("connect")
        .compile(SAXPY)
        .expect("warm compile");

    const CLIENTS: usize = 8;
    const TENANTS: usize = 4;
    const N: usize = 256;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|ci| {
            std::thread::spawn(move || {
                let tenant = format!("tenant-{}", ci % TENANTS);
                let mut c = Client::connect(addr, &tenant).expect("connect");
                let module = c.compile(SAXPY).expect("compile");
                let xs: Vec<f32> = (0..N).map(|i| (ci * N + i) as f32 * 0.25).collect();
                let ys: Vec<f32> = (0..N).map(|i| 1.0 + i as f32 * 0.5).collect();
                let a = 1.5 + ci as f32;
                let x = c.create_stream(&[N as u32], 1).expect("x");
                let y = c.create_stream(&[N as u32], 1).expect("y");
                let r = c.create_stream(&[N as u32], 1).expect("r");
                c.write(x, &xs).expect("write x");
                c.write(y, &ys).expect("write y");
                for _ in 0..10 {
                    run_with_retry(
                        &mut c,
                        module,
                        "saxpy",
                        &[
                            WireArg::Stream(x),
                            WireArg::Stream(y),
                            WireArg::Float(a),
                            WireArg::Stream(r),
                        ],
                    );
                }
                let got = c.read(r).expect("read");
                (xs, ys, a, got)
            })
        })
        .collect();
    for w in workers {
        let (xs, ys, a, got) = w.join().expect("worker");
        assert_eq!(got, serial_saxpy(&xs, &ys, a), "service result must be bit-exact");
    }
    let mut c = Client::connect(addr, "warm").expect("connect");
    let stats = c.stats().expect("stats");
    assert_eq!(stat(&stats, "panics"), 0, "zero-panic gate");
    // One artifact serves every tenant: all compiles after the warm-up
    // hit the shared cache (the warm-up itself is the only guaranteed
    // miss; concurrent same-key misses are impossible here since the
    // cache was warm before any client started).
    assert_eq!(stat(&stats, "cache_misses"), 1);
    assert_eq!(stat(&stats, "cache_hits"), CLIENTS as u64);
    server.shutdown();
}

/// Retries `Busy` shedding (the documented client contract); anything
/// else must succeed.
fn run_with_retry(c: &mut Client, module: u64, kernel: &str, args: &[WireArg]) {
    loop {
        match c.run(module, kernel, args) {
            Ok(()) => return,
            Err(e) if e.code() == Some(ErrorCode::Busy) => std::thread::yield_now(),
            Err(e) => panic!("run: {e}"),
        }
    }
}

#[test]
fn tenant_handles_are_isolated() {
    let server = start(ServerConfig::default());
    let mut a = Client::connect(server.local_addr(), "alice").expect("connect");
    let mut b = Client::connect(server.local_addr(), "bob").expect("connect");
    let s = a.create_stream(&[4], 1).expect("stream");
    a.write(s, &[1.0; 4]).expect("write");
    // Bob cannot touch Alice's handle — handles are tenant-scoped, so
    // from Bob's side it simply does not exist.
    let err = b.read(s).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Malformed), "{err}");
    // And Bob's own handle space is untouched by Alice's allocations.
    let s_b = b.create_stream(&[2], 1).expect("stream");
    b.write(s_b, &[7.0, 8.0]).expect("write");
    assert_eq!(b.read(s_b).expect("read"), vec![7.0, 8.0]);
    assert_eq!(a.read(s).expect("read"), vec![1.0; 4]);
    server.shutdown();
}

#[test]
fn admission_rejects_over_budget_requests_with_structured_errors() {
    let server = start(ServerConfig {
        admission: AdmissionConfig {
            max_instructions_per_request: 2_000,
            max_stream_bytes: 1024,
        },
        ..ServerConfig::default()
    });
    let mut c = Client::connect(server.local_addr(), "t").expect("connect");

    // Memory: 1024 B = 256 scalars; 300 do not fit.
    let err = c.create_stream(&[300], 1).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::AdmissionRejected), "{err}");
    let s = c.create_stream(&[128], 1).expect("128 fits");
    let err = c.create_stream(&[200], 1).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::AdmissionRejected), "{err}");
    // Releasing the charge re-admits.
    c.drop_stream(s).expect("drop");
    let s = c.create_stream(&[200], 1).expect("fits after release");

    // Compute: a loop-heavy kernel over 200 elements blows the 2000
    // instruction ceiling; the request is refused before execution.
    let heavy = "kernel void heavy(float x<>, out float o<>) {
        float s = x;
        for (int i = 0; i < 64; i++) { s = s * 1.0001 + 1.0; }
        o = s;
    }";
    let module = c.compile(heavy).expect("compile");
    let o = c.create_stream(&[50], 1).expect("out");
    c.write(s, &vec![0.0; 200]).expect("write");
    let err = c
        .run(module, "heavy", &[WireArg::Stream(s), WireArg::Stream(o)])
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::AdmissionRejected), "{err}");
    // The same kernel over a small domain is admitted (and runs).
    let s_small = {
        c.drop_stream(s).expect("drop big");
        c.create_stream(&[5], 1).expect("small")
    };
    c.write(s_small, &[1.0; 5]).expect("write");
    let o_small = c.create_stream(&[5], 1).expect("out small");
    c.run(
        module,
        "heavy",
        &[WireArg::Stream(s_small), WireArg::Stream(o_small)],
    )
    .expect("small domain is admitted");
    let stats = c.stats().expect("stats");
    assert!(stat(&stats, "admission_rejected") >= 3);
    assert_eq!(stat(&stats, "panics"), 0);
    server.shutdown();
}

#[test]
fn usage_errors_fail_the_request_not_the_connection() {
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.local_addr(), "t").expect("connect");
    let module = c.compile(SAXPY).expect("compile");
    let x = c.create_stream(&[4], 1).expect("x");
    // Too few arguments: typed Usage error...
    let err = c.run(module, "saxpy", &[WireArg::Stream(x)]).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Usage), "{err}");
    // Unknown kernel on a valid module...
    let err = c.run(module, "nope", &[]).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Usage), "{err}");
    // Certification failure from source...
    let err = c
        .compile(
            "kernel void f(float a<>, out float o<>) { float s = a; while (s > 0.0) { s -= 1.0; } o = s; }",
        )
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Certification), "{err}");
    // Parse error from source...
    let err = c.compile("kernel void broken(").unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Compile), "{err}");
    // ...and after all of that the connection still serves requests.
    c.write(x, &[1.0; 4]).expect("write");
    assert_eq!(c.read(x).expect("read"), vec![1.0; 4]);
    let stats = c.stats().expect("stats");
    assert_eq!(stat(&stats, "panics"), 0);
    server.shutdown();
}

#[test]
fn hostile_sources_get_compile_errors_and_the_connection_keeps_serving() {
    let header = "kernel void f(float a<>, out float o<>) {";
    let braces = format!("{header} {} o = a; {} }}", "{ ".repeat(9_000), "} ".repeat(9_000));
    let sum = format!("{header} o = a{}; }}", " + a".repeat(6_000));
    let minus = format!("{header} o = {}a; }}", "- ".repeat(15_000));
    let server = start(ServerConfig::default());
    let mut c = Client::connect(server.local_addr(), "t").expect("connect");
    for (src, code) in [(&braces, "P012"), (&sum, "P011"), (&minus, "P011")] {
        assert!((20_000..=40_000).contains(&src.len()), "{} bytes", src.len());
        let err = c.compile(src).expect_err("over a nesting limit");
        assert_eq!(err.code(), Some(ErrorCode::Compile), "{err}");
        assert!(err.to_string().contains(code), "expected {code}: {err}");
    }
    let (xs, ys) = ([1.0, -2.5, 3.25, 1e-3], [0.5, 0.25, -4.0, 7.0]);
    let module = c.compile(SAXPY).expect("compile");
    let x = c.create_stream(&[4], 1).expect("x");
    let y = c.create_stream(&[4], 1).expect("y");
    let r = c.create_stream(&[4], 1).expect("r");
    c.write(x, &xs).expect("write x");
    c.write(y, &ys).expect("write y");
    let args = [
        WireArg::Stream(x),
        WireArg::Stream(y),
        WireArg::Float(1.5),
        WireArg::Stream(r),
    ];
    c.run(module, "saxpy", &args).expect("run");
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&c.read(r).expect("read")),
        bits(&serial_saxpy(&xs, &ys, 1.5)),
        "bit-exact vs serial execution"
    );
    assert_eq!(stat(&c.stats().expect("stats"), "panics"), 0);
    server.shutdown();
}

#[test]
fn malformed_frames_get_structured_errors() {
    use brook_serve::wire::{read_frame, write_frame, Response};
    use std::net::TcpStream;
    let server = start(ServerConfig::default());
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    write_frame(&mut conn, &[250, 1, 2, 3]).expect("send garbage");
    let frame = read_frame(&mut conn).expect("reply").expect("frame");
    match Response::decode(&frame).expect("decode") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected error, got {other:?}"),
    }
    // The connection survives the bad frame.
    write_frame(&mut conn, &brook_serve::Request::Stats.encode()).expect("stats");
    let frame = read_frame(&mut conn).expect("reply").expect("frame");
    assert!(matches!(
        Response::decode(&frame).expect("decode"),
        Response::Stats(_)
    ));
    server.shutdown();
}

#[test]
fn same_kernel_launches_coalesce_on_a_shard() {
    // One tenant, one shard: fire a burst of identical-kernel launches
    // from several connections so they wait for the shard lock behind
    // one another. Each launch still runs on its own; the test checks
    // that every one of them ran and the result stayed exact.
    let server = start(ServerConfig {
        shards: 1,
        queue_depth: 256,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut setup = Client::connect(addr, "t").expect("connect");
    let module = setup.compile(SAXPY).expect("compile");
    let x = setup.create_stream(&[64], 1).expect("x");
    let y = setup.create_stream(&[64], 1).expect("y");
    let r = setup.create_stream(&[64], 1).expect("r");
    setup.write(x, &vec![1.0; 64]).expect("write");
    setup.write(y, &vec![2.0; 64]).expect("write");
    let workers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr, "t").expect("connect");
                for _ in 0..50 {
                    run_with_retry(
                        &mut c,
                        module,
                        "saxpy",
                        &[
                            WireArg::Stream(x),
                            WireArg::Stream(y),
                            WireArg::Float(3.0),
                            WireArg::Stream(r),
                        ],
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }
    assert_eq!(setup.read(r).expect("read"), vec![5.0; 64]);
    let stats = setup.stats().expect("stats");
    let runs = stat(&stats, "runs");
    assert_eq!(runs, 200);
    assert_eq!(stat(&stats, "panics"), 0);
    server.shutdown();
}

#[test]
fn results_identical_across_tenants_for_identical_inputs() {
    // The same program + inputs through different tenants (hence
    // different contexts adopting the same cached artifact) must agree
    // exactly — the cross-tenant half of the differential story.
    let server = start(ServerConfig::default());
    let addr = server.local_addr();
    let mut results: HashMap<String, Vec<f32>> = HashMap::new();
    for tenant in ["red", "green", "blue"] {
        let mut c = Client::connect(addr, tenant).expect("connect");
        let module = c.compile(SAXPY).expect("compile");
        let x = c.create_stream(&[32], 1).expect("x");
        let y = c.create_stream(&[32], 1).expect("y");
        let r = c.create_stream(&[32], 1).expect("r");
        let xs: Vec<f32> = (0..32).map(|i| i as f32 * 0.125).collect();
        c.write(x, &xs).expect("write");
        c.write(y, &[1.0; 32]).expect("write");
        c.run(
            module,
            "saxpy",
            &[
                WireArg::Stream(x),
                WireArg::Stream(y),
                WireArg::Float(2.0),
                WireArg::Stream(r),
            ],
        )
        .expect("run");
        results.insert(tenant.to_owned(), c.read(r).expect("read"));
    }
    let first = results.values().next().expect("results").clone();
    for (tenant, got) in &results {
        assert_eq!(*got, first, "tenant {tenant} diverged");
    }
    server.shutdown();
}

#[test]
fn device_backend_serves_with_vram_budget() {
    // The service runs on the GL backend too, with the runtime memory
    // budget (BA002) installed per tenant.
    let server = start(ServerConfig {
        backend: "gles2-packed",
        device_memory_budget: Some(1 << 20),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(server.local_addr(), "t").expect("connect");
    let module = c.compile(SAXPY).expect("compile");
    let x = c.create_stream(&[8], 1).expect("x");
    let y = c.create_stream(&[8], 1).expect("y");
    let r = c.create_stream(&[8], 1).expect("r");
    c.write(x, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        .expect("write");
    c.write(y, &[10.0; 8]).expect("write");
    c.run(
        module,
        "saxpy",
        &[
            WireArg::Stream(x),
            WireArg::Stream(y),
            WireArg::Float(2.0),
            WireArg::Stream(r),
        ],
    )
    .expect("run");
    assert_eq!(
        c.read(r).expect("read"),
        vec![12.0, 14.0, 16.0, 18.0, 20.0, 22.0, 24.0, 26.0]
    );
    // A stream the device budget cannot hold fails cleanly (Device
    // error, not a panic, not a wedged tenant).
    let err = c.create_stream(&[2048, 2048], 1).unwrap_err();
    assert!(matches!(err, ClientError::Server { .. }), "{err}");
    // Tenant still serves.
    assert_eq!(c.read(x).expect("read").len(), 8);
    let stats = c.stats().expect("stats");
    assert_eq!(stat(&stats, "panics"), 0);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Fault injection & recovery: watchdog deadlines, tenant poisoning,
// circuit breaker lifecycle, retry hints, resilience counters.

use brook_auto::{FaultPlan, ResiliencePolicy};
use brook_serve::{BreakerConfig, RetryPolicy};
use std::time::Duration;

/// A full saxpy workflow over the wire; returns the result vector.
fn wire_saxpy(c: &mut Client, n: u32) -> Result<Vec<f32>, ClientError> {
    let module = c.compile(SAXPY)?;
    let x = c.create_stream(&[n], 1)?;
    let y = c.create_stream(&[n], 1)?;
    let r = c.create_stream(&[n], 1)?;
    let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
    c.write(x, &xs)?;
    c.write(y, &vec![0.5; n as usize])?;
    c.run(
        module,
        "saxpy",
        &[
            WireArg::Stream(x),
            WireArg::Stream(y),
            WireArg::Float(2.0),
            WireArg::Stream(r),
        ],
    )?;
    c.read(r)
}

#[test]
fn stalled_server_times_out_with_a_typed_error() {
    // A listener that accepts and then never answers: the client's
    // socket timeout must convert the stall into `TimedOut`, not a
    // forever-hang.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let stall = std::thread::spawn(move || {
        let (_conn, _) = listener.accept().expect("accept");
        std::thread::sleep(Duration::from_secs(2)); // hold the socket open, say nothing
    });
    let mut c = Client::connect_with_timeout(addr, "t", Some(Duration::from_millis(100))).expect("connect");
    let started = std::time::Instant::now();
    let err = c.stats().unwrap_err();
    assert!(matches!(err, ClientError::TimedOut), "{err}");
    assert!(started.elapsed() < Duration::from_secs(1), "timed out promptly");
    drop(c);
    stall.join().expect("stall thread");
}

#[test]
fn saturated_shard_sheds_with_hint_and_with_retry_recovers() {
    // One shard, queue depth one. Tenant t's first launch is held in a
    // 400 ms injected latency spike, a second launch fills the queue,
    // so a third is shed with `Busy` + retry_after_ms. `with_retry`
    // then rides the hint to eventual success.
    let server = start(ServerConfig {
        shards: 1,
        queue_depth: 1,
        fault_plan: Some(FaultPlan::new().with_latency(0, 400)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut c = Client::connect(addr, "t").expect("connect");
    let module = c.compile(SAXPY).expect("compile");
    let x = c.create_stream(&[8], 1).expect("x");
    let y = c.create_stream(&[8], 1).expect("y");
    let r = c.create_stream(&[8], 1).expect("r");
    c.write(x, &[1.0; 8]).expect("write x");
    c.write(y, &[2.0; 8]).expect("write y");
    let args = [
        WireArg::Stream(x),
        WireArg::Stream(y),
        WireArg::Float(3.0),
        WireArg::Stream(r),
    ];

    // Occupy the shard (hits the latency fault) ...
    let slow = {
        let args = args.to_vec();
        let mut c2 = Client::connect(addr, "t").expect("connect");
        std::thread::spawn(move || c2.run(module, "saxpy", &args))
    };
    std::thread::sleep(Duration::from_millis(100));
    // ... fill the depth-1 queue ...
    let queued = {
        let args = args.to_vec();
        let mut c3 = Client::connect(addr, "t").expect("connect");
        std::thread::spawn(move || c3.run(module, "saxpy", &args))
    };
    std::thread::sleep(Duration::from_millis(50));
    // ... and get shed, with the back-off hint.
    let err = c.run(module, "saxpy", &args).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Busy), "{err}");
    assert!(err.is_retryable());
    assert_eq!(err.retry_after_ms(), Some(5), "Busy carries the hint");

    // Bounded retries with jittered backoff ride out the saturation
    // (the spike outlasts the default 5-attempt budget, so give the
    // policy room).
    let policy = RetryPolicy {
        max_attempts: 60,
        backoff_base_ms: 5,
        backoff_cap_ms: 50,
        seed: 7,
    };
    c.with_retry(&policy, |c| c.run(module, "saxpy", &args))
        .expect("with_retry eventually succeeds");
    assert_eq!(c.read(r).expect("read"), vec![5.0; 8]);
    slow.join().expect("slow").expect("slow run ok");
    queued.join().expect("queued").expect("queued run ok");
    let stats = c.stats().expect("stats");
    assert!(stat(&stats, "busy_rejected") >= 1);
    assert_eq!(stat(&stats, "panics"), 0);
    server.shutdown();
}

#[test]
fn watchdog_cancels_a_hung_launch_within_the_deadline() {
    // An injected device hang with no in-context attempt timeout: only
    // the serve watchdog can unwedge it. The client gets a `Timeout`
    // reply at the deadline and the shard recovers for later requests.
    let server = start(ServerConfig {
        shards: 1,
        launch_deadline: Some(Duration::from_millis(200)),
        fault_plan: Some(FaultPlan::new().with_hang(0)),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(server.local_addr(), "t").expect("connect");
    let module = c.compile(SAXPY).expect("compile");
    let x = c.create_stream(&[4], 1).expect("x");
    let y = c.create_stream(&[4], 1).expect("y");
    let r = c.create_stream(&[4], 1).expect("r");
    c.write(x, &[1.0; 4]).expect("write x");
    c.write(y, &[1.0; 4]).expect("write y");
    let args = [
        WireArg::Stream(x),
        WireArg::Stream(y),
        WireArg::Float(1.0),
        WireArg::Stream(r),
    ];
    let started = std::time::Instant::now();
    let err = c.run(module, "saxpy", &args).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Timeout), "{err}");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "watchdog answered, not the hang"
    );
    // The hang was cancelled, not abandoned: the same tenant serves
    // the retried launch (the injected hang fired once).
    std::thread::sleep(Duration::from_millis(50)); // let the shard notice the cancel
    c.run(module, "saxpy", &args).expect("retried run succeeds");
    assert_eq!(c.read(r).expect("read"), vec![2.0; 4]);
    let stats = c.stats().expect("stats");
    assert!(stat(&stats, "timeouts") >= 1);
    assert_eq!(stat(&stats, "panics"), 0);
    server.shutdown();
}

#[test]
fn panic_discards_tenant_state_without_a_breaker() {
    // Pre-breaker contract, pinned: a caught panic fails the request,
    // drops the tenant (handles dangle), the process keeps serving.
    let server = start(ServerConfig {
        shards: 1,
        fault_plan: Some(FaultPlan::new().with_panic(0)),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(server.local_addr(), "t").expect("connect");
    let module = c.compile(SAXPY).expect("compile");
    let x = c.create_stream(&[4], 1).expect("x");
    let y = c.create_stream(&[4], 1).expect("y");
    let r = c.create_stream(&[4], 1).expect("r");
    c.write(x, &[1.0; 4]).expect("write x");
    c.write(y, &[1.0; 4]).expect("write y");
    let args = [
        WireArg::Stream(x),
        WireArg::Stream(y),
        WireArg::Float(1.0),
        WireArg::Stream(r),
    ];
    let err = c.run(module, "saxpy", &args).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Internal), "{err}");
    assert!(err.to_string().contains("panicked"), "{err}");
    // The tenant's handles died with its state.
    let err = c.read(r).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Malformed), "stale handle");
    // But the tenant can rebuild immediately (fault plans arm once per
    // tenant name — the fresh context starts clean) and the process
    // never stopped serving.
    assert_eq!(wire_saxpy(&mut c, 8).expect("rebuilt workflow"), {
        let xs: Vec<f32> = (0..8).map(|i| i as f32).collect();
        serial_saxpy(&xs, &[0.5; 8], 2.0)
    });
    let stats = c.stats().expect("stats");
    assert_eq!(stat(&stats, "panics"), 1);
    assert_eq!(stat(&stats, "breaker_trips"), 0, "no breaker configured");
    server.shutdown();
}

#[test]
fn breaker_trips_sheds_probes_and_recovers() {
    let server = start(ServerConfig {
        shards: 1,
        breaker: Some(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_millis(300),
        }),
        fault_plan: Some(FaultPlan::new().with_panic(0)),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(server.local_addr(), "t").expect("connect");
    let module = c.compile(SAXPY).expect("compile");
    let x = c.create_stream(&[4], 1).expect("x");
    let r = c.create_stream(&[4], 1).expect("r");
    c.write(x, &[2.0; 4]).expect("write");
    let args = [
        WireArg::Stream(x),
        WireArg::Stream(x),
        WireArg::Float(1.0),
        WireArg::Stream(r),
    ];
    // Trip: one panic is the threshold.
    let err = c.run(module, "saxpy", &args).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Internal), "{err}");
    // Open: requests are shed with a cooldown hint, nothing executes.
    let err = c.compile(SUM).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Retryable), "{err}");
    assert!(err.is_retryable());
    let hint = err.retry_after_ms().expect("open breaker hints retry_after");
    assert!((1..=300).contains(&hint), "hint {hint} within cooldown");
    // Half-open after the cooldown: the probe succeeds and closes the
    // breaker; the tenant rebuilds and serves normally.
    std::thread::sleep(Duration::from_millis(350));
    let expected = {
        let xs: Vec<f32> = (0..8).map(|i| i as f32).collect();
        serial_saxpy(&xs, &[0.5; 8], 2.0)
    };
    assert_eq!(wire_saxpy(&mut c, 8).expect("recovered"), expected);
    let stats = c.stats().expect("stats");
    assert_eq!(stat(&stats, "breaker_trips"), 1);
    assert!(stat(&stats, "breaker_probes") >= 1);
    assert!(stat(&stats, "breaker_rejected") >= 1);
    assert_eq!(stat(&stats, "panics"), 1);
    server.shutdown();
}

#[test]
fn failed_probe_re_trips_the_breaker() {
    let server = start(ServerConfig {
        shards: 1,
        breaker: Some(BreakerConfig {
            failure_threshold: 1,
            cooldown: Duration::from_millis(250),
        }),
        // Both tenants' first contexts arm this plan: each panics on
        // its own launch 0.
        fault_plan: Some(FaultPlan::new().with_panic(0)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut a = Client::connect(addr, "a").expect("connect");
    let mut b = Client::connect(addr, "b").expect("connect");

    // Stage b's workflow fully (no launches yet), so its *run* can be
    // the breaker's probe later.
    let b_module = b.compile(SAXPY).expect("compile");
    let bx = b.create_stream(&[4], 1).expect("x");
    let br = b.create_stream(&[4], 1).expect("r");
    b.write(bx, &[1.0; 4]).expect("write");
    let b_args = [
        WireArg::Stream(bx),
        WireArg::Stream(bx),
        WireArg::Float(1.0),
        WireArg::Stream(br),
    ];

    // Tenant a trips the breaker.
    let a_module = a.compile(SAXPY).expect("compile");
    let ax = a.create_stream(&[4], 1).expect("x");
    let ar = a.create_stream(&[4], 1).expect("r");
    a.write(ax, &[1.0; 4]).expect("write");
    let a_args = [
        WireArg::Stream(ax),
        WireArg::Stream(ax),
        WireArg::Float(1.0),
        WireArg::Stream(ar),
    ];
    let err = a.run(a_module, "saxpy", &a_args).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Internal), "{err}");
    assert_eq!(
        a.read(ar).unwrap_err().code(),
        Some(ErrorCode::Retryable),
        "breaker open"
    );

    // After the cooldown, b's run is the probe — and it panics too
    // (b's own injected fault), so the breaker re-trips on the spot.
    std::thread::sleep(Duration::from_millis(300));
    let err = b.run(b_module, "saxpy", &b_args).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Internal), "probe panicked: {err}");
    let err = b.compile(SUM).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Retryable), "re-tripped: {err}");

    // Second cooldown, clean probe, full recovery for both tenants.
    std::thread::sleep(Duration::from_millis(300));
    let expected = {
        let xs: Vec<f32> = (0..8).map(|i| i as f32).collect();
        serial_saxpy(&xs, &[0.5; 8], 2.0)
    };
    assert_eq!(wire_saxpy(&mut a, 8).expect("a recovered"), expected);
    assert_eq!(wire_saxpy(&mut b, 8).expect("b recovered"), expected);
    let stats = a.stats().expect("stats");
    assert_eq!(stat(&stats, "breaker_trips"), 2);
    assert_eq!(stat(&stats, "panics"), 2);
    assert!(stat(&stats, "breaker_probes") >= 2);
    server.shutdown();
}

#[test]
fn resilience_evidence_flows_into_service_counters() {
    // The in-context recovery ladder (retry, redundant-execution
    // detection, verified failover) reports through the service stats.
    let server = start(ServerConfig {
        shards: 1,
        resilience: Some(ResiliencePolicy {
            redundant_check: true,
            ..ResiliencePolicy::default()
        }),
        fault_plan: Some(
            FaultPlan::new()
                .with_device_loss(0, false) // launch 0: transient, retried
                .with_corruption(1, 0, 0, 0x0040_0000) // launch 1: caught + repaired
                .with_device_loss(2, true), // launch 2: persistent, failover
        ),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(server.local_addr(), "t").expect("connect");
    let module = c.compile(SAXPY).expect("compile");
    let x = c.create_stream(&[16], 1).expect("x");
    let y = c.create_stream(&[16], 1).expect("y");
    let r = c.create_stream(&[16], 1).expect("r");
    let xs: Vec<f32> = (0..16).map(|i| i as f32 * 0.5).collect();
    c.write(x, &xs).expect("write x");
    c.write(y, &[1.0; 16]).expect("write y");
    let args = [
        WireArg::Stream(x),
        WireArg::Stream(y),
        WireArg::Float(2.0),
        WireArg::Stream(r),
    ];
    let expected = serial_saxpy(&xs, &[1.0; 16], 2.0);
    for _ in 0..3 {
        c.run(module, "saxpy", &args).expect("run rides the ladder");
        assert_eq!(c.read(r).expect("read"), expected, "bit-exact through faults");
    }
    let stats = c.stats().expect("stats");
    assert!(stat(&stats, "retries") >= 1, "transient loss retried");
    assert_eq!(stat(&stats, "corruptions_detected"), 1);
    assert_eq!(stat(&stats, "failovers"), 1);
    assert_eq!(stat(&stats, "panics"), 0, "ladder recovery needs no panics");
    server.shutdown();
}

#[test]
fn launch_queued_past_its_deadline_times_out_without_executing() {
    // The first launch stalls the only shard for 600 ms in work that
    // ignores cancellation, so its 200 ms deadline cannot cut it short.
    // A second launch queued behind it outlives its own deadline while
    // it waits for the shard: it is answered `Timeout` and never runs.
    let server = start(ServerConfig {
        shards: 1,
        launch_deadline: Some(Duration::from_millis(200)),
        fault_plan: Some(FaultPlan::new().with_stall(0, 600)),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut c = Client::connect(addr, "t").expect("connect");
    let module = c.compile(SAXPY).expect("compile");
    let x = c.create_stream(&[8], 1).expect("x");
    let y = c.create_stream(&[8], 1).expect("y");
    let r = c.create_stream(&[8], 1).expect("r");
    c.write(x, &[1.0; 8]).expect("write x");
    c.write(y, &[2.0; 8]).expect("write y");
    let args = [
        WireArg::Stream(x),
        WireArg::Stream(y),
        WireArg::Float(3.0),
        WireArg::Stream(r),
    ];
    let stalled = {
        let args = args.to_vec();
        let mut c2 = Client::connect(addr, "t").expect("connect");
        std::thread::spawn(move || c2.run(module, "saxpy", &args))
    };
    std::thread::sleep(Duration::from_millis(100));
    let queued_at = std::time::Instant::now();
    let err = c.run(module, "saxpy", &args).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Timeout), "{err}");
    assert!(
        queued_at.elapsed() < Duration::from_secs(2),
        "answered once the shard freed up"
    );
    // The stalled launch ran to completion past its deadline; it is
    // answered `Timeout` when it returns.
    let err = stalled.join().expect("stalled thread").unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Timeout), "{err}");
    let stats = c.stats().expect("stats");
    assert_eq!(stat(&stats, "runs"), 1, "only the stalled launch executed");
    assert_eq!(stat(&stats, "timeouts"), 2);

    // The same shard then serves a fresh launch bit-exactly.
    let xs: Vec<f32> = (0..8).map(|i| i as f32 * 0.75).collect();
    c.write(x, &xs).expect("write x");
    c.run(module, "saxpy", &args).expect("fresh launch");
    assert_eq!(c.read(r).expect("read"), serial_saxpy(&xs, &[2.0; 8], 3.0));
    let stats = c.stats().expect("stats");
    assert_eq!(stat(&stats, "runs"), 2);
    assert_eq!(stat(&stats, "timeouts"), 2);
    assert_eq!(stat(&stats, "panics"), 0);
    server.shutdown();
}

#[test]
fn watchdog_serves_ordinary_launches_without_timeouts() {
    let server = start(ServerConfig {
        launch_deadline: Some(Duration::from_secs(1)),
        ..ServerConfig::default()
    });
    let mut c = Client::connect(server.local_addr(), "t").expect("connect");
    let module = c.compile(SAXPY).expect("compile");
    let sum = c.compile(SUM).expect("compile sum");
    let x = c.create_stream(&[64], 1).expect("x");
    let y = c.create_stream(&[64], 1).expect("y");
    let r = c.create_stream(&[64], 1).expect("r");
    let xs: Vec<f32> = (0..64).map(|i| i as f32 * 0.5).collect();
    c.write(x, &xs).expect("write x");
    c.write(y, &[1.0; 64]).expect("write y");
    let args = [
        WireArg::Stream(x),
        WireArg::Stream(y),
        WireArg::Float(2.0),
        WireArg::Stream(r),
    ];
    for _ in 0..100 {
        c.run(module, "saxpy", &args).expect("run");
    }
    let expected = serial_saxpy(&xs, &[1.0; 64], 2.0);
    assert_eq!(c.read(r).expect("read"), expected);
    assert_eq!(
        c.reduce(sum, "sum", r).expect("reduce"),
        expected.iter().sum::<f32>()
    );
    let stats = c.stats().expect("stats");
    assert_eq!(stat(&stats, "runs"), 100);
    assert_eq!(stat(&stats, "timeouts"), 0);
    assert_eq!(stat(&stats, "errors"), 0);
    server.shutdown();
}
