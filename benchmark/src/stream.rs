//! The `stream` workload and the launch-path probes.
//!
//! One iteration runs `b = a + 1.0` at every size in [`SIZES`], a batch
//! of roundtrips per size: `write` a, `run`, `read` b, each output
//! checked against a plain Rust `a + 1.0`. Two seeded inputs per size
//! alternate, so every write changes the stream.

use crate::check::{values, Samples, Tally};
use crate::compile::phases;
use crate::trace::Tracer;
use brook_auto::{Arg, BrookContext, BrookModule, FaultPlan, Stream};
use brook_ir::interp::Binding;
use std::time::Instant;

/// The streaming kernel.
pub const ADD_SRC: &str = "kernel void add(float a<>, out float b<>) { b = a + 1.0; }";

/// Stream lengths, with the label their metrics carry.
pub const SIZES: [(usize, &str); 5] = [
    (1, "1"),
    (16, "16"),
    (256, "256"),
    (4096, "4096"),
    (65536, "65536"),
];

/// Back-to-back roundtrips per size and iteration: enough that the
/// small sizes are timed warm, not only right after the largest size
/// has flushed the caches.
const BATCH: [usize; 5] = [32, 32, 16, 4, 1];

/// Inputs per size that alternate between iterations.
const VARIANTS: usize = 2;

/// The `stream` workload state.
pub struct StreamBench {
    ctx: BrookContext,
    module: BrookModule,
    /// Per size: (a, b) streams.
    streams: Vec<(Stream, Stream)>,
    /// Per size: input variants and their expected outputs.
    inputs: Vec<Vec<(Vec<f32>, Vec<f32>)>>,
    iter: usize,
}

/// Seeded inputs for length `n`, salted by `salt`, with their plain
/// Rust `a + 1.0`.
fn input(seed: u64, salt: u64, n: usize) -> (Vec<f32>, Vec<f32>) {
    let a = values(seed, salt, n, -1000.0, 1000.0);
    let b = a.iter().map(|x| x + 1.0).collect();
    (a, b)
}

impl StreamBench {
    /// Compiles the kernel and allocates every size's streams.
    ///
    /// # Errors
    /// Compile or allocation failures, rendered.
    pub fn setup(seed: u64) -> Result<StreamBench, String> {
        let mut ctx = BrookContext::cpu();
        let module = ctx.compile(ADD_SRC).map_err(|e| format!("stream: {e}"))?;
        let mut streams = Vec::new();
        let mut inputs = Vec::new();
        for (k, &(n, _)) in SIZES.iter().enumerate() {
            let a = ctx.stream(&[n]).map_err(|e| format!("stream: {e}"))?;
            let b = ctx.stream(&[n]).map_err(|e| format!("stream: {e}"))?;
            streams.push((a, b));
            inputs.push(
                (0..VARIANTS)
                    .map(|v| input(seed, 100 + (k * VARIANTS + v) as u64, n))
                    .collect(),
            );
        }
        Ok(StreamBench {
            ctx,
            module,
            streams,
            inputs,
            iter: 0,
        })
    }

    /// One iteration: at every size, [`BATCH`] roundtrips of write,
    /// run and read.
    pub fn iterate(&mut self, s: &mut Samples, tally: &mut Tally, tr: &Tracer) {
        for (k, &(_, label)) in SIZES.iter().enumerate() {
            for _ in 0..BATCH[k] {
                self.roundtrip(k, label, s, tally, tr);
            }
        }
    }

    fn roundtrip(&mut self, k: usize, label: &'static str, s: &mut Samples, tally: &mut Tally, tr: &Tracer) {
        let (a, b) = &self.streams[k];
        let (data, want) = &self.inputs[k][self.iter % VARIANTS];
        self.iter += 1;
        let t = Instant::now();
        let got = {
            let _span = tr.span("core.write_us", label);
            self.ctx.write(a, data)
        }
        .and_then(|()| {
            let _span = tr.span("core.run_us", label);
            self.ctx
                .run(&self.module, "add", &[Arg::Stream(a), Arg::Stream(b)])
        })
        .and_then(|()| {
            let _span = tr.span("core.read_us", label);
            self.ctx.read(b)
        });
        s.push(format!("roundtrip_ns.{label}"), t.elapsed().as_nanos() as f64);
        tally.floats(got, want);
    }
}

/// `ir.verify_us` and the direct Tier-2 engine time at the largest
/// size, in ns per element (`ir.tier_direct_ns_per_elem`). Both work on
/// the add kernel as the compile pipeline leaves it.
///
/// # Errors
/// A pipeline failure, a kernel that is not Tier-2 compiled, or an
/// engine error.
pub fn engine_probe(seed: u64, reps: usize, tally: &mut Tally, tr: &Tracer) -> Result<f64, String> {
    let (compiled, _) = phases(&[ADD_SRC], &Tracer::new(false))?;
    let c = &compiled[0];
    let kernel = c.ir.kernel("add").ok_or("engine probe: no `add` kernel")?;
    let lane = c
        .lanes
        .kernel("add")
        .ok_or("engine probe: `add` is not lane-planned")?;
    let tier = c
        .tiers
        .kernel("add")
        .ok_or("engine probe: `add` is not Tier-2 compiled")?;
    for _ in 0..reps {
        let _span = tr.span("ir.verify_us", "");
        brook_ir::verify::verify(kernel).map_err(|e| format!("engine probe: {e:?}"))?;
    }
    let (n, _) = SIZES[SIZES.len() - 1];
    let (a, want) = input(seed, 200, n);
    let shape = [n];
    let bindings = [
        Binding::Elem {
            data: &a,
            shape: &shape,
            width: 1,
        },
        Binding::Out(0),
    ];
    let mut out = vec![0.0f32; n];
    let mut ns = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let r = brook_ir::tier::run_kernel_range(
            tier,
            lane,
            kernel,
            &bindings,
            &mut [&mut out[..]],
            &shape,
            0..n,
        );
        ns.push(t.elapsed().as_nanos() as f64 / n as f64);
        tally.floats(r.map(|()| out.clone()), &want);
    }
    crate::stats::median(&ns).ok_or_else(|| "engine probe: no reps".into())
}

/// Paired `run` timings at n = 1 on a plain context and on one with an
/// empty `FaultPlan` armed, interleaved (the order alternates per
/// pair). Returns each pair's armed − plain delta, in µs.
///
/// # Errors
/// Compile, allocation or launch failures, rendered.
pub fn idle_hook_deltas(seed: u64, pairs: usize, tally: &mut Tally) -> Result<Vec<f64>, String> {
    let (data, want) = input(seed, 300, 1);
    let mut sides = Vec::new();
    for armed in [false, true] {
        let mut ctx = BrookContext::cpu();
        if armed {
            ctx.set_fault_plan(FaultPlan::new());
        }
        let m = ctx.compile(ADD_SRC).map_err(|e| format!("idle hook: {e}"))?;
        let a = ctx.stream(&[1]).map_err(|e| format!("idle hook: {e}"))?;
        let b = ctx.stream(&[1]).map_err(|e| format!("idle hook: {e}"))?;
        ctx.write(&a, &data).map_err(|e| format!("idle hook: {e}"))?;
        sides.push((ctx, m, a, b));
    }
    let mut time = |side: &mut (BrookContext, BrookModule, Stream, Stream)| {
        let (ctx, m, a, b) = side;
        let t = Instant::now();
        let r = ctx.run(m, "add", &[Arg::Stream(a), Arg::Stream(b)]);
        let us = t.elapsed().as_nanos() as f64 / 1e3;
        tally.floats(r.and_then(|()| ctx.read(b)), &want);
        us
    };
    let mut deltas = Vec::with_capacity(pairs);
    for p in 0..pairs {
        let (plain, armed) = sides.split_at_mut(1);
        let (plain, armed) = (&mut plain[0], &mut armed[0]);
        let d = if p % 2 == 0 {
            let x = time(plain);
            time(armed) - x
        } else {
            let y = time(armed);
            y - time(plain)
        };
        deltas.push(d);
        if p % 256 == 255 {
            // The armed hook keeps a record per launch; drain them
            // outside the timed calls.
            armed.0.take_resilience_records();
        }
    }
    Ok(deltas)
}
