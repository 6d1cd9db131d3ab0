//! The `serve` workload: a closed loop against an in-process
//! `brook-serve` server.
//!
//! Two client connections on two tenants, one thread each, send their
//! next request only after the previous reply (closed loop; the
//! server's shard threads are part of the program under test). Each
//! request is a saxpy `run` over 256-element streams. Every 10th
//! request is followed by a `read`, checked against the serial
//! in-process oracle, and every [`CHURN_EVERY`]th by a
//! `create_stream`/`write`/`drop_stream` cycle on a 65 536-element
//! stream, up to [`CHURN_MAX`] cycles per connection and run. A
//! request's latency spans its `Busy` retries.

use crate::check::{values, Samples, Tally};
use crate::host;
use crate::trace::Tracer;
use brook_auto::{Arg, BrookContext};
use brook_serve::{Client, ClientResult, ErrorCode, Request, Response, Server, ServerConfig, WireArg};
use std::time::{Duration, Instant};

/// The served kernel.
pub const SAXPY_SRC: &str =
    "kernel void saxpy(float x<>, float y<>, float a, out float r<>) { r = a * x + y; }";

/// Elements per saxpy stream.
pub const ELEMS: usize = 256;

/// Elements of a churned stream.
pub const CHURN_ELEMS: usize = 1 << 16;

/// Requests between churn cycles.
pub const CHURN_EVERY: usize = 64;

/// Churn cycles per connection and run. Capping the count keeps the
/// memory the churn leaves behind the same from run to run. A small cap
/// keeps the churn inside the first few `serve_req_per_s` samples, so
/// their median sits among the churn-free ones instead of between the
/// two groups.
pub const CHURN_MAX: usize = 16;

/// Client connections (and tenants).
pub const CONNS: usize = 2;

/// How long one slice of the serve main loop lasts; the drift probe
/// runs between slices, while the clients are idle. Each slice gives
/// one `serve_req_per_s` sample.
pub const SLICE: Duration = Duration::from_millis(100);

/// Saxpy runs per connection in one load call of a side slice, so a
/// side slice gives several `serve_req_per_s` samples.
pub const CHUNK_RUNS: usize = 50;

/// One client connection and its streams.
struct Conn {
    client: Client,
    module: u64,
    args: [WireArg; 4],
    r: u64,
    want: Vec<f32>,
    churn: Vec<f32>,
    churn_left: usize,
    /// Saxpy runs over the connection's lifetime.
    runs: usize,
}

/// When a load call stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At this instant.
    At(Instant),
    /// After this many saxpy runs per connection.
    Runs(usize),
}

/// What one connection did during a load call.
#[derive(Default)]
struct ConnOutcome {
    lat_us: Vec<f64>,
    lat_traced_us: Vec<f64>,
    lat_plain_us: Vec<f64>,
    tally: Tally,
    churns: usize,
    /// Whether the current iteration is traced.
    traced: bool,
}

/// The `serve` workload state.
pub struct Serve {
    server: Option<Server>,
    conns: Vec<Conn>,
    /// VmRSS growth (MiB) and churn cycles over every load call.
    rss_growth: (f64, usize),
}

impl Serve {
    /// Starts the server, connects the clients and uploads their
    /// streams; computes each connection's oracle in process.
    ///
    /// # Errors
    /// Server, connection or request failures, rendered.
    pub fn setup(seed: u64) -> Result<Serve, String> {
        let server =
            Server::start("127.0.0.1:0", ServerConfig::default()).map_err(|e| format!("serve: {e}"))?;
        let addr = server.local_addr();
        let mut serve = Serve {
            server: Some(server),
            conns: Vec::new(),
            rss_growth: (0.0, 0),
        };
        for ci in 0..CONNS {
            let salt = 400 + 10 * ci as u64;
            let xs = values(seed, salt, ELEMS, -4.0, 4.0);
            let ys = values(seed, salt + 1, ELEMS, -4.0, 4.0);
            let a = values(seed, salt + 2, 1, 0.5, 2.0)[0];
            let e = |e: brook_serve::ClientError| format!("serve: {e}");
            let mut client =
                Client::connect(addr, &format!("tenant-{ci}")).map_err(|e| format!("serve: {e}"))?;
            let module = client.compile(SAXPY_SRC).map_err(e)?;
            let shape = [ELEMS as u32];
            let x = client.create_stream(&shape, 1).map_err(e)?;
            let y = client.create_stream(&shape, 1).map_err(e)?;
            let r = client.create_stream(&shape, 1).map_err(e)?;
            client.write(x, &xs).map_err(e)?;
            client.write(y, &ys).map_err(e)?;
            serve.conns.push(Conn {
                client,
                module,
                args: [
                    WireArg::Stream(x),
                    WireArg::Stream(y),
                    WireArg::Float(a),
                    WireArg::Stream(r),
                ],
                r,
                want: oracle(&xs, &ys, a).map_err(|e| format!("serve oracle: {e}"))?,
                churn: values(seed, salt + 3, CHURN_ELEMS, -1.0, 1.0),
                churn_left: CHURN_MAX,
                runs: 0,
            });
        }
        Ok(serve)
    }

    /// Runs every connection on its own thread until `stop`. Records
    /// each request's latency under `serve_lat_us` and the completed
    /// requests per second of wall time under `serve_req_per_s`.
    pub fn load(&mut self, stop: Stop, s: &mut Samples, tally: &mut Tally, tr: &Tracer) {
        let rss0 = host::rss_mib();
        let t = Instant::now();
        let corrupt = tally.corrupt;
        let active = Tracer::thread_active();
        let outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .map(|c| scope.spawn(move || c.load(stop, corrupt, active, tr)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = t.elapsed().as_secs_f64();
        let mut requests = 0;
        let mut churns = 0;
        for o in outcomes {
            requests += o.lat_us.len();
            churns += o.churns;
            s.extend("serve_lat_us", o.lat_us);
            s.extend("serve_lat_traced_us", o.lat_traced_us);
            s.extend("serve_lat_plain_us", o.lat_plain_us);
            tally.merge(o.tally);
        }
        s.push("serve_req_per_s", requests as f64 / wall);
        self.rss_growth.0 += host::rss_mib() - rss0;
        self.rss_growth.1 += churns;
    }

    /// VmRSS growth per 100 churn cycles over every load call, MiB
    /// (0 when nothing churned).
    pub fn rss_growth_per_100(&self) -> f64 {
        match self.rss_growth.1 {
            0 => 0.0,
            n => self.rss_growth.0 / n as f64 * 100.0,
        }
    }

    /// The server's counters.
    pub fn stats(&self) -> Vec<(String, u64)> {
        self.server.as_ref().map(Server::stats).unwrap_or_default()
    }

    /// The wire layer alone: encoding (then decoding) the workload's
    /// run request and its 256-element read reply, `reps` times each.
    pub fn wire_probe(&self, reps: usize, tally: &mut Tally, tr: &Tracer) {
        let c = &self.conns[0];
        let request = Request::Run {
            tenant: "tenant-0".into(),
            module: c.module,
            kernel: "saxpy".into(),
            args: c.args.to_vec(),
        };
        let reply = Response::Data(c.want.clone());
        for _ in 0..reps {
            let (rq, rp) = {
                let _span = tr.span("serve.encode_us", "");
                (request.encode(), reply.encode())
            };
            let decoded = {
                let _span = tr.span("serve.decode_us", "");
                (Request::decode(&rq), Response::decode(&rp))
            };
            tally.verdict(matches!(decoded, (Ok(q), Ok(p)) if q == request && p == reply));
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // Disconnect first so the connection threads end, then stop
        // the acceptor.
        self.conns.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// The serial in-process oracle: the same saxpy on `BrookContext`.
fn oracle(xs: &[f32], ys: &[f32], a: f32) -> Result<Vec<f32>, brook_auto::BrookError> {
    let mut ctx = BrookContext::cpu();
    let m = ctx.compile(SAXPY_SRC)?;
    let x = ctx.stream(&[xs.len()])?;
    let y = ctx.stream(&[ys.len()])?;
    let r = ctx.stream(&[xs.len()])?;
    ctx.write(&x, xs)?;
    ctx.write(&y, ys)?;
    ctx.run(
        &m,
        "saxpy",
        &[Arg::Stream(&x), Arg::Stream(&y), Arg::Float(a), Arg::Stream(&r)],
    )?;
    ctx.read(&r)
}

/// `serve.engine_us`: the workload's saxpy through in-process
/// `BrookContext::run`, the floor a served run cannot beat.
///
/// # Errors
/// Compile, allocation or launch failures, rendered.
pub fn engine_floor(seed: u64, reps: usize, tally: &mut Tally, tr: &Tracer) -> Result<(), String> {
    let xs = values(seed, 400, ELEMS, -4.0, 4.0);
    let ys = values(seed, 401, ELEMS, -4.0, 4.0);
    let a = values(seed, 402, 1, 0.5, 2.0)[0];
    let want = oracle(&xs, &ys, a).map_err(|e| format!("engine floor: {e}"))?;
    let e = |e: brook_auto::BrookError| format!("engine floor: {e}");
    let mut ctx = BrookContext::cpu();
    let m = ctx.compile(SAXPY_SRC).map_err(e)?;
    let x = ctx.stream(&[ELEMS]).map_err(e)?;
    let y = ctx.stream(&[ELEMS]).map_err(e)?;
    let r = ctx.stream(&[ELEMS]).map_err(e)?;
    ctx.write(&x, &xs).map_err(e)?;
    ctx.write(&y, &ys).map_err(e)?;
    let args = [Arg::Stream(&x), Arg::Stream(&y), Arg::Float(a), Arg::Stream(&r)];
    for _ in 0..reps {
        let run = {
            let _span = tr.span("serve.engine_us", "");
            ctx.run(&m, "saxpy", &args)
        };
        tally.floats(run.and_then(|()| ctx.read(&r)), &want);
    }
    Ok(())
}

/// Retries a request while the server answers `Busy`.
fn retry_busy<T>(mut f: impl FnMut() -> ClientResult<T>) -> ClientResult<T> {
    loop {
        match f() {
            Err(e) if e.code() == Some(ErrorCode::Busy) => std::thread::yield_now(),
            r => return r,
        }
    }
}

impl Conn {
    /// Times one request, spanned as `span`.
    fn request<T>(
        &mut self,
        out: &mut ConnOutcome,
        tr: &Tracer,
        span: &'static str,
        mut f: impl FnMut(&mut Client) -> ClientResult<T>,
    ) -> ClientResult<T> {
        let t = Instant::now();
        let r = {
            let _span = tr.span(span, "");
            retry_busy(|| f(&mut self.client))
        };
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        out.lat_us.push(us);
        if tr.enabled() {
            match out.traced {
                true => out.lat_traced_us.push(us),
                false => out.lat_plain_us.push(us),
            }
        }
        r
    }

    /// The connection's closed loop; traces only when `active` (the
    /// calling thread's tracing state).
    fn load(&mut self, stop: Stop, corrupt: bool, active: bool, tr: &Tracer) -> ConnOutcome {
        let mut out = ConnOutcome {
            tally: Tally::new(corrupt),
            ..ConnOutcome::default()
        };
        let mut runs = 0usize;
        loop {
            match stop {
                Stop::At(t) if Instant::now() >= t => break,
                Stop::Runs(n) if runs >= n => break,
                _ => {}
            }
            // The traced run alternates blocks of ten traced and ten
            // untraced iterations (each block holds one read) to
            // measure the tracing overhead.
            out.traced = active && (self.runs / 10).is_multiple_of(2);
            Tracer::set_thread_active(out.traced);
            let (module, args) = (self.module, self.args.clone());
            let ok = self
                .request(&mut out, tr, "serve.run_us", |c| c.run(module, "saxpy", &args))
                .is_ok();
            out.tally.verdict(ok);
            runs += 1;
            self.runs += 1;
            if self.runs.is_multiple_of(10) {
                let r = self.r;
                let got = self.request(&mut out, tr, "serve.read_us", |c| c.read(r));
                let want = std::mem::take(&mut self.want);
                out.tally.floats(got, &want);
                self.want = want;
            }
            if self.runs.is_multiple_of(CHURN_EVERY) && self.churn_left > 0 {
                self.churn_left -= 1;
                out.churns += 1;
                let ok = self.churn(&mut out, tr);
                out.tally.verdict(ok);
            }
        }
        out
    }

    /// One create/write/drop cycle; true when every request succeeded.
    fn churn(&mut self, out: &mut ConnOutcome, tr: &Tracer) -> bool {
        let shape = [CHURN_ELEMS as u32];
        let Ok(s) = self.request(out, tr, "serve.create_us", |c| c.create_stream(&shape, 1)) else {
            return false;
        };
        let data = std::mem::take(&mut self.churn);
        let wrote = self
            .request(out, tr, "serve.write_us", |c| c.write(s, &data))
            .is_ok();
        self.churn = data;
        let dropped = self
            .request(out, tr, "serve.drop_us", |c| c.drop_stream(s))
            .is_ok();
        wrote && dropped
    }
}
