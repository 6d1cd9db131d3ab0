//! Service load harness: multi-tenant, multi-client latency measurement
//! against a live `brook-serve` instance, with a bit-exactness check
//! against serial single-tenant execution.
//!
//! This is the CI `service-smoke` substrate: [`service_load`] spins up
//! a server on an ephemeral port, hammers it from `clients` concurrent
//! connections spread over `tenants` tenants, and reports request
//! latency percentiles plus the server's own counters. Any divergence
//! from the serial oracle or any caught panic fails the run.

use brook_auto::{Arg, BrookContext};
use brook_serve::{Client, ErrorCode, Server, ServerConfig, WireArg};
use std::time::Instant;

const SOURCE: &str = "kernel void saxpy(float x<>, float y<>, float a, out float r<>) { r = a * x + y; }";

/// Outcome of one service load run.
#[derive(Debug, Clone)]
pub struct ServiceLoadReport {
    /// Distinct tenants the clients were spread over.
    pub tenants: usize,
    /// Concurrent client connections.
    pub clients: usize,
    /// Kernel launches issued per client.
    pub launches_per_client: usize,
    /// Elements per stream.
    pub elements: usize,
    /// Total requests the server reported serving.
    pub total_requests: u64,
    /// Request latency percentiles over every timed request
    /// (launches and reads), in nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile latency, ns.
    pub p95_ns: u64,
    /// 99th percentile latency, ns.
    pub p99_ns: u64,
    /// Worst observed latency, ns.
    pub max_ns: u64,
    /// Panics caught by the server's shield (gate: must be 0).
    pub panics: u64,
    /// Requests shed with `Busy` (clients retried them).
    pub busy_rejected: u64,
    /// Compiled-module cache hits across tenants.
    pub cache_hits: u64,
    /// Compiled-module cache misses (compiles).
    pub cache_misses: u64,
    /// Launches that waited for their shard behind a launch of the
    /// same `(tenant, module, kernel)`.
    pub coalesced_runs: u64,
    /// Every client's final stream matched the serial oracle bit for
    /// bit (gate: must be true).
    pub bit_exact: bool,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// What the service must reproduce for one client's workload.
fn serial_oracle(xs: &[f32], ys: &[f32], a: f32, launches: usize) -> Vec<f32> {
    let mut ctx = BrookContext::cpu();
    let m = ctx.compile(SOURCE).expect("oracle compile");
    let x = ctx.stream(&[xs.len()]).expect("x");
    let y = ctx.stream(&[ys.len()]).expect("y");
    let r = ctx.stream(&[xs.len()]).expect("r");
    ctx.write(&x, xs).expect("write");
    ctx.write(&y, ys).expect("write");
    for _ in 0..launches {
        ctx.run(
            &m,
            "saxpy",
            &[Arg::Stream(&x), Arg::Stream(&y), Arg::Float(a), Arg::Stream(&r)],
        )
        .expect("oracle run");
    }
    ctx.read(&r).expect("oracle read")
}

/// Runs the load test: `clients` concurrent connections spread over
/// `tenants` tenants, each issuing `launches_per_client` kernel
/// launches (plus periodic reads) against a fresh server.
///
/// # Errors
/// Server start-up or client failures, as a rendered message.
pub fn service_load(
    tenants: usize,
    clients: usize,
    launches_per_client: usize,
    elements: usize,
) -> Result<ServiceLoadReport, String> {
    assert!(tenants >= 1 && clients >= tenants);
    let server =
        Server::start("127.0.0.1:0", ServerConfig::default()).map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr();

    let workers: Vec<_> = (0..clients)
        .map(|ci| {
            std::thread::spawn(move || -> Result<(Vec<u64>, bool), String> {
                let tenant = format!("tenant-{}", ci % tenants);
                let mut c = Client::connect(addr, &tenant).map_err(|e| format!("connect: {e}"))?;
                let module = c.compile(SOURCE).map_err(|e| format!("compile: {e}"))?;
                let xs: Vec<f32> = (0..elements).map(|i| (ci + i) as f32 * 0.25).collect();
                let ys: Vec<f32> = (0..elements).map(|i| 1.0 + i as f32 * 0.5).collect();
                let a = 1.5 + ci as f32;
                let shape = [elements as u32];
                let x = c.create_stream(&shape, 1).map_err(|e| e.to_string())?;
                let y = c.create_stream(&shape, 1).map_err(|e| e.to_string())?;
                let r = c.create_stream(&shape, 1).map_err(|e| e.to_string())?;
                c.write(x, &xs).map_err(|e| e.to_string())?;
                c.write(y, &ys).map_err(|e| e.to_string())?;
                let args = [
                    WireArg::Stream(x),
                    WireArg::Stream(y),
                    WireArg::Float(a),
                    WireArg::Stream(r),
                ];
                let mut lat = Vec::with_capacity(launches_per_client + launches_per_client / 10);
                for i in 0..launches_per_client {
                    // A timed request spans Busy retries: shedding is
                    // part of the latency a well-behaved client sees.
                    let t0 = Instant::now();
                    loop {
                        match c.run(module, "saxpy", &args) {
                            Ok(()) => break,
                            Err(e) if e.code() == Some(ErrorCode::Busy) => {
                                std::thread::yield_now();
                            }
                            Err(e) => return Err(format!("run: {e}")),
                        }
                    }
                    lat.push(t0.elapsed().as_nanos() as u64);
                    if i % 10 == 9 {
                        let t0 = Instant::now();
                        c.read(r).map_err(|e| format!("read: {e}"))?;
                        lat.push(t0.elapsed().as_nanos() as u64);
                    }
                }
                let got = c.read(r).map_err(|e| format!("read: {e}"))?;
                let want = serial_oracle(&xs, &ys, a, launches_per_client);
                Ok((lat, got == want))
            })
        })
        .collect();

    let mut latencies = Vec::new();
    let mut bit_exact = true;
    for w in workers {
        let (lat, exact) = w.join().map_err(|_| "client thread panicked".to_owned())??;
        latencies.extend(lat);
        bit_exact &= exact;
    }
    latencies.sort_unstable();

    let stats = server.stats();
    let stat = |name: &str| -> u64 { stats.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v) };
    let report = ServiceLoadReport {
        tenants,
        clients,
        launches_per_client,
        elements,
        total_requests: stat("requests"),
        p50_ns: percentile(&latencies, 50.0),
        p95_ns: percentile(&latencies, 95.0),
        p99_ns: percentile(&latencies, 99.0),
        max_ns: latencies.last().copied().unwrap_or(0),
        panics: stat("panics"),
        busy_rejected: stat("busy_rejected"),
        cache_hits: stat("cache_hits"),
        cache_misses: stat("cache_misses"),
        coalesced_runs: stat("coalesced_runs"),
        bit_exact,
    };
    server.shutdown();
    Ok(report)
}

/// Human-readable summary table.
pub fn render_service_table(r: &ServiceLoadReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "service load: {} tenants x {} clients x {} launches ({} elems/stream)",
        r.tenants, r.clients, r.launches_per_client, r.elements
    );
    let _ = writeln!(
        out,
        "  latency  p50 {:>9.1} us   p95 {:>9.1} us   p99 {:>9.1} us   max {:>9.1} us",
        r.p50_ns as f64 / 1e3,
        r.p95_ns as f64 / 1e3,
        r.p99_ns as f64 / 1e3,
        r.max_ns as f64 / 1e3,
    );
    let _ = writeln!(
        out,
        "  server   {} requests, {} busy-shed, {} coalesced, cache {}h/{}m, {} panics",
        r.total_requests, r.busy_rejected, r.coalesced_runs, r.cache_hits, r.cache_misses, r.panics
    );
    let _ = writeln!(
        out,
        "  bit-exact vs serial single-tenant execution: {}",
        if r.bit_exact { "yes" } else { "NO — DIVERGED" }
    );
    out
}

/// `BENCH_service.json` payload.
pub fn service_json(r: &ServiceLoadReport) -> String {
    format!(
        "{{\n  \"bench\": \"service\",\n  \"unit\": \"ns/request\",\n  \"tenants\": {},\n  \
         \"clients\": {},\n  \"launches_per_client\": {},\n  \"elements\": {},\n  \
         \"p50_ns\": {},\n  \"p95_ns\": {},\n  \"p99_ns\": {},\n  \"max_ns\": {},\n  \
         \"requests\": {},\n  \"busy_rejected\": {},\n  \"coalesced_runs\": {},\n  \
         \"cache_hits\": {},\n  \"cache_misses\": {},\n  \"panics\": {},\n  \"bit_exact\": {}\n}}\n",
        r.tenants,
        r.clients,
        r.launches_per_client,
        r.elements,
        r.p50_ns,
        r.p95_ns,
        r.p99_ns,
        r.max_ns,
        r.total_requests,
        r.busy_rejected,
        r.coalesced_runs,
        r.cache_hits,
        r.cache_misses,
        r.panics,
        r.bit_exact,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_sorted_ranks() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 51);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn small_load_run_is_bit_exact_and_panic_free() {
        let r = service_load(2, 4, 20, 64).expect("load run");
        assert!(r.bit_exact);
        assert_eq!(r.panics, 0);
        assert!(r.total_requests >= (4 * 20) as u64);
        assert!(r.p50_ns <= r.p95_ns && r.p95_ns <= r.p99_ns && r.p99_ns <= r.max_ns);
    }
}
