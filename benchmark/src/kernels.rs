//! The `kernels` workload and the execution-ladder probes.
//!
//! Five compute-bound rows — mandelbrot 64×64, sgemm 32, flops 64×64
//! (96 iterations), image_filter 96×96 and an analyzer-admitted `min`
//! reduce over 65 536 elements — dispatched once each per iteration on
//! `BrookContext::cpu()` and `cpu_parallel()`, interleaved. Every
//! output is checked bit for bit against the first serial output, and
//! that output against the AST oracle once the loop ends.
//!
//! The traced run adds the ladder: one explicitly configured context
//! per rung (AST walker, scalar IR, lanes, Tier-2 scalar, Tier-2 SIMD),
//! each checked from its `ComplianceReport` before it is timed.

use crate::check::{values, Samples, Tally};
use crate::trace::Tracer;
use brook_apps::{flops::Flops, image_filter, mandelbrot, sgemm};
use brook_auto::{Arg, BrookContext, BrookError, BrookModule, ComplianceReport, DeviceProfile, Stream};
use brook_ir::simd::{detect, SimdLevel, SimdMode};
use std::time::Instant;

/// The admitted reduce: `clamp` bounds the combine operand, so the
/// analyzer proves it NaN-free and the vectorized fold applies.
pub const REDUCE_MIN_SRC: &str =
    "reduce void rmin(float a<>, reduce float r<>) { r = min(r, clamp(a, 0.5, 2.0)); }";

/// Reduce input length.
pub const REDUCE_N: usize = 1 << 16;

/// One positional kernel argument.
pub enum ArgSpec {
    /// Gather table (shape, data).
    Gather(Vec<usize>, Vec<f32>),
    /// Elementwise input (shape, data).
    Input(Vec<usize>, Vec<f32>),
    /// Scalar float.
    F(f32),
    /// `float4` constant.
    F4([f32; 4]),
}

/// One timed dispatch of the suite.
pub struct Row {
    /// App name (`reduce_min` for the reduce row).
    pub app: &'static str,
    source: String,
    kernel: &'static str,
    args: Vec<ArgSpec>,
    /// Output shape; empty for the reduce row.
    out_shape: Vec<usize>,
}

impl Row {
    fn is_reduce(&self) -> bool {
        self.out_shape.is_empty()
    }

    /// The row's stream inputs, flattened in argument order.
    pub fn input_data(&self) -> Vec<&[f32]> {
        self.args
            .iter()
            .filter_map(|a| match a {
                ArgSpec::Gather(_, d) | ArgSpec::Input(_, d) => Some(d.as_slice()),
                _ => None,
            })
            .collect()
    }
}

/// The suite's rows with inputs drawn from `seed`. mandelbrot's inputs
/// are the fixed region: its per-pixel escape count sets its work, so
/// a seeded region would make the timed work depend on the seed.
pub fn rows(seed: u64) -> Vec<Row> {
    let mb = 64usize;
    let (x0, y0, x1, y1) = mandelbrot::REGION;
    let (dx, dy) = ((x1 - x0) / mb as f32, (y1 - y0) / mb as f32);
    let n = 32usize;
    let img = 96usize;
    let w = image_filter::GAUSSIAN;
    let v = |salt, len| values(seed, salt, len, 0.5, 2.5);
    vec![
        Row {
            app: "mandelbrot",
            source: mandelbrot::kernel_source(),
            kernel: "mandelbrot",
            args: vec![ArgSpec::F(x0), ArgSpec::F(y0), ArgSpec::F(dx), ArgSpec::F(dy)],
            out_shape: vec![mb, mb],
        },
        Row {
            app: "sgemm",
            source: sgemm::kernel_source(n),
            kernel: "sgemm",
            args: vec![
                ArgSpec::Gather(vec![n, n], v(1, n * n)),
                ArgSpec::Gather(vec![n, n], v(2, n * n)),
            ],
            out_shape: vec![n, n],
        },
        Row {
            app: "flops",
            source: Flops { iters: 96 }.kernel_source(),
            kernel: "flops",
            args: vec![
                ArgSpec::Input(vec![64, 64], v(3, 64 * 64)),
                ArgSpec::Input(vec![64, 64], v(4, 64 * 64)),
            ],
            out_shape: vec![64, 64],
        },
        Row {
            app: "image_filter",
            source: image_filter::KERNEL.to_string(),
            kernel: "conv3x3",
            args: vec![
                ArgSpec::Gather(vec![img, img], v(5, img * img)),
                ArgSpec::F4([w[0], w[1], w[2], w[3]]),
                ArgSpec::F4([w[4], w[5], w[6], w[7]]),
                ArgSpec::F(w[8]),
            ],
            out_shape: vec![img, img],
        },
        Row {
            app: "reduce_min",
            source: REDUCE_MIN_SRC.to_string(),
            kernel: "rmin",
            args: vec![ArgSpec::Input(
                vec![REDUCE_N],
                values(seed, 6, REDUCE_N, 0.0, 3.0),
            )],
            out_shape: Vec::new(),
        },
    ]
}

/// A row compiled and bound on one context.
pub struct Bound {
    ctx: BrookContext,
    module: BrookModule,
    streams: Vec<Option<Stream>>,
    out: Option<Stream>,
}

impl Bound {
    /// Compiles `row` on `ctx` and uploads its inputs.
    ///
    /// # Errors
    /// Compile, stream or transfer failures.
    pub fn new(row: &Row, mut ctx: BrookContext) -> Result<Bound, BrookError> {
        let module = ctx.compile(&row.source)?;
        let mut streams = Vec::new();
        for a in &row.args {
            streams.push(match a {
                ArgSpec::Gather(shape, data) | ArgSpec::Input(shape, data) => {
                    let s = ctx.stream(shape)?;
                    ctx.write(&s, data)?;
                    Some(s)
                }
                ArgSpec::F(_) | ArgSpec::F4(_) => None,
            });
        }
        let out = if row.is_reduce() {
            None
        } else {
            Some(ctx.stream(&row.out_shape)?)
        };
        Ok(Bound {
            ctx,
            module,
            streams,
            out,
        })
    }

    /// The compile-time report of the row's module.
    pub fn report(&self) -> &ComplianceReport {
        &self.module.report
    }

    /// The context's backend name.
    pub fn backend(&self) -> &'static str {
        self.ctx.backend_name()
    }

    /// One dispatch: `run` for map rows, `reduce` for the reduce row
    /// (whose scalar result is returned).
    ///
    /// # Errors
    /// Backend failures.
    pub fn exec(&mut self, row: &Row) -> Result<Option<f32>, BrookError> {
        if row.is_reduce() {
            let input = self.streams[0]
                .as_ref()
                .expect("reduce row binds one input stream");
            return self.ctx.reduce(&self.module, row.kernel, input).map(Some);
        }
        let mut args: Vec<Arg<'_>> = row
            .args
            .iter()
            .zip(&self.streams)
            .map(|(a, s)| match (a, s) {
                (ArgSpec::F(v), _) => Arg::Float(*v),
                (ArgSpec::F4(v), _) => Arg::Float4(*v),
                (_, Some(s)) => Arg::Stream(s),
                (_, None) => unreachable!("stream argument without a stream"),
            })
            .collect();
        args.push(Arg::Stream(self.out.as_ref().expect("map row binds an output")));
        self.ctx.run(&self.module, row.kernel, &args).map(|()| None)
    }

    /// The output of the last dispatch: the output stream, or the
    /// reduce scalar as a one-element vector.
    ///
    /// # Errors
    /// Transfer failures.
    pub fn output(&mut self, scalar: Option<f32>) -> Result<Vec<f32>, BrookError> {
        match (&self.out, scalar) {
            (Some(out), _) => self.ctx.read(out),
            (None, Some(v)) => Ok(vec![v]),
            (None, None) => Err(BrookError::Usage("reduce returned no scalar".into())),
        }
    }

    /// Dispatch plus output.
    ///
    /// # Errors
    /// As [`exec`](Self::exec) and [`output`](Self::output).
    pub fn exec_output(&mut self, row: &Row) -> Result<Vec<f32>, BrookError> {
        let scalar = self.exec(row)?;
        self.output(scalar)
    }
}

/// The `kernels` workload state.
pub struct Kernels {
    rows: Vec<Row>,
    serial: Vec<Bound>,
    parallel: Vec<Bound>,
    /// The first serial output of each row; every later output must
    /// match it, and it must match the AST oracle.
    reference: Vec<Option<Vec<f32>>>,
    /// Operations whose output matched each row's reference.
    matched: Vec<u64>,
}

impl Kernels {
    /// Compiles and binds every row on `cpu()` and `cpu_parallel()`.
    ///
    /// # Errors
    /// Any compile or bind failure, rendered.
    pub fn setup(seed: u64) -> Result<Kernels, String> {
        let rows = rows(seed);
        let bind = |make: fn() -> BrookContext| -> Result<Vec<Bound>, String> {
            rows.iter()
                .map(|r| Bound::new(r, make()).map_err(|e| format!("kernels: {}: {e}", r.app)))
                .collect()
        };
        let serial = bind(BrookContext::cpu)?;
        let parallel = bind(BrookContext::cpu_parallel)?;
        Ok(Kernels {
            reference: vec![None; rows.len()],
            matched: vec![0; rows.len()],
            rows,
            serial,
            parallel,
        })
    }

    /// The rows (for the ladder probe).
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// One iteration: every row once on each context, interleaved.
    pub fn iterate(&mut self, s: &mut Samples, tally: &mut Tally, tr: &Tracer) {
        for i in 0..self.rows.len() {
            let row = &self.rows[i];
            let t = Instant::now();
            let r = self.serial[i].exec(row);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            s.push(format!("kernel_ms.{}", row.app), ms);
            let got = r.and_then(|v| self.serial[i].output(v));
            check(&mut self.reference[i], &mut self.matched[i], got, tally);

            let t = Instant::now();
            let r = {
                let _span = tr.span("cpu_parallel.ms", row.app);
                self.parallel[i].exec(row)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            s.push(format!("kernel_parallel_ms.{}", row.app), ms);
            let got = r.and_then(|v| self.parallel[i].output(v));
            check(&mut self.reference[i], &mut self.matched[i], got, tally);
        }
    }

    /// Checks every row's reference against the AST oracle's output
    /// (from [`oracle_outputs`]). A row whose reference is wrong fails
    /// every operation that matched it.
    pub fn verify_oracle(&mut self, oracle: &[Option<Vec<f32>>], tally: &mut Tally) {
        for (i, want) in oracle.iter().enumerate() {
            let ok = match (want, &self.reference[i]) {
                (Some(o), Some(r)) => tally.floats::<()>(Ok(r.clone()), o),
                _ => tally.verdict(false),
            };
            if !ok {
                tally.failed += self.matched[i];
            }
        }
    }
}

/// Every row's output on the AST oracle (`None` where it failed).
pub fn oracle_outputs(rows: &[Row]) -> Vec<Option<Vec<f32>>> {
    rows.iter()
        .map(|row| {
            Bound::new(row, BrookContext::cpu_ast_oracle())
                .and_then(|mut b| b.exec_output(row))
                .ok()
        })
        .collect()
}

/// Checks one output against the row's reference, adopting the first
/// output as the reference.
fn check(
    reference: &mut Option<Vec<f32>>,
    matched: &mut u64,
    got: Result<Vec<f32>, BrookError>,
    tally: &mut Tally,
) {
    match reference {
        Some(want) => {
            if tally.floats(got, want) {
                *matched += 1;
            }
        }
        None => match got {
            Ok(v) => *reference = Some(v),
            Err(_) => {
                tally.verdict(false);
            }
        },
    }
}

/// The execution ladder's rungs, slowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// The AST tree walker (`cpu_ast_oracle()`).
    Ast,
    /// The scalar IR interpreter (`lane_execution = false`).
    Interp,
    /// The 16-lane engine (`tier_execution = false`).
    Lanes,
    /// Tier-2 closures with SIMD forced off.
    Tier,
    /// Tier-2 with explicit SIMD (the default context).
    Simd,
}

impl Rung {
    /// Every rung.
    pub const ALL: [Rung; 5] = [Rung::Ast, Rung::Interp, Rung::Lanes, Rung::Tier, Rung::Simd];

    /// The span (and per-layer metric) the rung's dispatches feed.
    pub fn metric(self) -> &'static str {
        match self {
            Rung::Ast => "core.ast_ms",
            Rung::Interp => "ir.interp_ms",
            Rung::Lanes => "ir.lanes_ms",
            Rung::Tier => "ir.tier_ms",
            Rung::Simd => "ir.simd_ms",
        }
    }

    /// Whether the rung has a row for the reduce kernel (only the
    /// scalar fold and the vectorized fold are distinct engines).
    fn runs_reduce(self) -> bool {
        matches!(self, Rung::Interp | Rung::Simd)
    }

    /// The rung's explicitly configured context.
    pub fn context(self) -> BrookContext {
        match self {
            Rung::Ast => BrookContext::cpu_ast_oracle(),
            Rung::Interp => {
                let mut ctx = BrookContext::cpu();
                ctx.lane_execution = false;
                ctx
            }
            Rung::Lanes => {
                let mut ctx = BrookContext::cpu();
                ctx.tier_execution = false;
                ctx
            }
            Rung::Tier => {
                let mut ctx = BrookContext::cpu();
                ctx.simd_mode = SimdMode::Off;
                ctx
            }
            Rung::Simd => BrookContext::cpu(),
        }
    }

    /// Checks, from the module's compliance report, that `kernel` runs
    /// on this rung's engine and no other.
    ///
    /// # Errors
    /// A description of the engine the report shows instead.
    pub fn check(self, backend: &str, report: &ComplianceReport, row: &Row) -> Result<(), String> {
        let kernel = row.kernel;
        let lane = report.lane_plans.iter().find(|p| p.kernel == kernel);
        let tier = report.tier_plans.iter().find(|p| p.kernel == kernel);
        let reduce = report.simd_reduces.iter().find(|p| p.kernel == kernel);
        let vectorized = lane.is_some_and(|p| p.vectorized);
        let compiled = tier.is_some_and(|p| p.compiled);
        let scalar_steps = tier.is_some_and(|p| p.detail.contains("simd scalar"));
        let admitted = reduce.is_some_and(|r| r.admitted);
        let simd_host = detect() != SimdLevel::Scalar;
        let ok = match (self, row.is_reduce()) {
            (Rung::Ast, _) => backend == "cpu-ast" && report.passes.is_empty(),
            (Rung::Interp, _) => backend == "cpu" && !vectorized && !compiled && !admitted,
            (Rung::Simd, true) => backend == "cpu" && (admitted || !simd_host),
            (_, true) => false,
            (Rung::Lanes, false) => backend == "cpu" && vectorized && !compiled,
            (Rung::Tier, false) => backend == "cpu" && compiled && scalar_steps,
            (Rung::Simd, false) => backend == "cpu" && compiled && (!simd_host || !scalar_steps),
        };
        if ok {
            return Ok(());
        }
        Err(format!(
            "rung {self:?} on `{kernel}` ran another engine: backend {backend}, lane plan {:?}, tier plan \
             {:?}, reduce plan {:?}",
            lane.map(|p| &p.detail),
            tier.map(|p| &p.detail),
            reduce.map(|p| &p.detail)
        ))
    }
}

/// Times every rung on every row `reps` times, round-robin, after
/// checking each rung's engine from its report. Every output must
/// match the AST oracle's (`oracle`, from [`oracle_outputs`]).
///
/// # Errors
/// A rung that ran another engine, or a compile failure.
pub fn ladder(
    rows: &[Row],
    oracle: &[Option<Vec<f32>>],
    reps: usize,
    tally: &mut Tally,
    tr: &Tracer,
) -> Result<(), String> {
    let mut bound: Vec<(Rung, &Row, &[f32], Bound)> = Vec::new();
    for rung in Rung::ALL {
        for (row, want) in rows.iter().zip(oracle) {
            if row.is_reduce() && !rung.runs_reduce() {
                continue;
            }
            let want = want
                .as_deref()
                .ok_or_else(|| format!("ladder: no oracle output for {}", row.app))?;
            let b =
                Bound::new(row, rung.context()).map_err(|e| format!("ladder {rung:?} {}: {e}", row.app))?;
            rung.check(b.backend(), b.report(), row)?;
            bound.push((rung, row, want, b));
        }
    }
    for _ in 0..reps {
        for (rung, row, want, b) in &mut bound {
            let r = {
                let _span = tr.span(rung.metric(), row.app);
                b.exec(row)
            };
            tally.floats(r.and_then(|v| b.output(v)), want);
        }
    }
    Ok(())
}

/// The modeled-GPU event counts of the four map apps at their matrix
/// size on the VideoCore IV profile: draw calls, texture fetches, ALU
/// operations and bytes moved, summed.
///
/// # Errors
/// Any app failure, rendered.
pub fn gles2_counts(seed: u64) -> Result<[u64; 4], String> {
    let mut sum = [0u64; 4];
    for app in brook_apps::all_apps() {
        if !crate::ROWS[..4].contains(&app.name()) {
            continue;
        }
        let mut ctx = BrookContext::gles2(DeviceProfile::videocore_iv());
        ctx.reset_counters();
        app.run_gpu(&mut ctx, app.matrix_size(), seed)
            .map_err(|e| format!("gles2 {}: {e}", app.name()))?;
        let c = ctx.gpu_counters();
        sum[0] += c.draw_calls;
        sum[1] += c.tex_fetches;
        sum[2] += c.alu_ops;
        sum[3] += c.bytes_uploaded + c.bytes_downloaded;
    }
    Ok(sum)
}
