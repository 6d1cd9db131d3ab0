//! The execution ladder: five CPU engines on one workload table,
//! checked first, then timed round-robin.
//!
//! The rungs, slowest first, are the AST tree walker, the scalar
//! BrookIR interpreter, the 16-lane engine, Tier-2 closure chains with
//! SIMD forced off and Tier-2 with explicit SIMD. Each rung runs on
//! exactly the context the `benchmark` crate's ladder builds, so both
//! harnesses measure the same engines.
//!
//! Before any timing, [`check_ladder`] checks every rung's engine from
//! its `ComplianceReport` — a context that silently ran a faster engine
//! would otherwise flatter the rung below it — and its output against
//! the AST oracle, bit for bit. [`time_ladder`] then times the rungs
//! round-robin, so host drift lands on every rung alike instead of on
//! whichever side a per-pair harness timed second. `ladder_report`
//! renders the table, writes `BENCH_ladder.json` and **fails** unless
//! every rung is strictly faster than the rung below it on every row it
//! runs ([`LadderRow::regressions`]).

use brook_apps::{flops::Flops, image_filter, mandelbrot, sgemm};
use brook_auto::{Arg, BrookContext, BrookError, BrookModule, Stream};
use brook_ir::simd::{detect, SimdLevel, SimdMode};
use std::time::Instant;

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
    /// Every rung, slowest first.
    pub const ALL: [Rung; 5] = [Rung::Ast, Rung::Interp, Rung::Lanes, Rung::Tier, Rung::Simd];

    /// Whether the rung runs `w`. Only the scalar fold and the
    /// vectorized fold are distinct reduce engines, so the reduce row
    /// runs on `Interp` and `Simd` alone.
    pub fn runs(self, w: &Workload) -> bool {
        !w.is_reduce() || matches!(self, Rung::Interp | Rung::Simd)
    }

    /// The rung's explicitly configured context: the AST oracle, or the
    /// default `cpu()` with the one engine above the rung switched off.
    pub fn context(self) -> BrookContext {
        if self == Rung::Ast {
            return BrookContext::cpu_ast_oracle();
        }
        let mut ctx = BrookContext::cpu();
        match self {
            Rung::Interp => ctx.lane_execution = false,
            Rung::Lanes => ctx.tier_execution = false,
            Rung::Tier => ctx.simd_mode = SimdMode::Off,
            Rung::Ast | Rung::Simd => {}
        }
        ctx
    }

    /// Checks, from the prepared module's compliance report, that the
    /// workload's kernel runs on this rung's engine and no other.
    ///
    /// # Errors
    /// A description of the engine the report shows instead.
    pub fn check(self, p: &Prepared, w: &Workload) -> Result<(), BrookError> {
        let backend = p.ctx.backend_name();
        let report = &p.module.report;
        let kernel = w.kernel;
        let lane = report.lane_plans.iter().find(|p| p.kernel == kernel);
        let tier = report.tier_plans.iter().find(|p| p.kernel == kernel);
        let reduce = report.simd_reduces.iter().find(|p| p.kernel == kernel);
        let vectorized = lane.is_some_and(|p| p.vectorized);
        let compiled = tier.is_some_and(|p| p.compiled);
        let scalar_steps = tier.is_some_and(|p| p.detail.contains("simd scalar"));
        let admitted = reduce.is_some_and(|r| r.admitted);
        let simd_host = detect() != SimdLevel::Scalar;
        let ok = match (self, w.is_reduce()) {
            (Rung::Ast, _) => backend == "cpu-ast" && report.passes.is_empty(),
            (Rung::Interp, _) => backend == "cpu" && !vectorized && !compiled && !admitted,
            (Rung::Simd, true) => backend == "cpu" && (admitted || !simd_host),
            (_, true) => false,
            (Rung::Lanes, false) => backend == "cpu" && vectorized && !compiled,
            (Rung::Tier, false) => backend == "cpu" && vectorized && compiled && scalar_steps,
            (Rung::Simd, false) => backend == "cpu" && compiled && (!simd_host || !scalar_steps),
        };
        if ok {
            return Ok(());
        }
        Err(BrookError::Usage(format!(
            "{}: rung {self:?} ran another engine: backend {backend}, lane plan {:?}, tier plan {:?}, \
             reduce plan {:?}",
            w.app,
            lane.map(|p| &p.detail),
            tier.map(|p| &p.detail),
            reduce.map(|p| &p.detail)
        )))
    }
}

/// Reduce input length.
const REDUCE_N: usize = 1 << 16;

/// The admitted reduce: `clamp` bounds the combine operand to
/// [0.5, 2.0], so the analyzer proves it NaN-free and sign-definite
/// and the planner opens the lattice-`min` fold to SIMD partials.
const REDUCE_MIN_SRC: &str =
    "reduce void rmin(float a<>, reduce float r<>) { r = min(r, clamp(a, 0.5, 2.0)); }";

/// The control: an `f32` sum is never reassociation-safe, so the
/// planner must keep it on the serial scalar fold even with SIMD on.
const REDUCE_SUM_SRC: &str = "reduce void rsum(float a<>, reduce float r<>) { r = r + a; }";

/// One positional kernel argument of a workload.
enum ArgSpec {
    /// An input stream, gathered or elementwise (shape, data).
    Stream(Vec<usize>, Vec<f32>),
    /// A constant.
    Value(Arg<'static>),
}

/// One row of the ladder: kernel source plus a launch recipe.
pub struct Workload {
    /// App name (`reduce_min` for the reduce row).
    pub app: &'static str,
    source: String,
    kernel: &'static str,
    args: Vec<ArgSpec>,
    /// Output shape; empty for the reduce row.
    out_shape: Vec<usize>,
}

impl Workload {
    /// Whether this is the reduce row.
    pub fn is_reduce(&self) -> bool {
        self.out_shape.is_empty()
    }

    /// Output elements per dispatch, or the reduce input length.
    pub fn elements(&self) -> usize {
        if self.is_reduce() {
            REDUCE_N
        } else {
            self.out_shape.iter().product()
        }
    }
}

/// The shared workload table: four map apps (mandelbrot 64², sgemm 32,
/// flops 64²×96, image_filter 96²) and an analyzer-admitted `min`
/// reduce over 65 536 elements.
pub fn workloads() -> Vec<Workload> {
    let mb = 64usize;
    let (x0, y0, x1, y1) = mandelbrot::REGION;
    let (dx, dy) = ((x1 - x0) / mb as f32, (y1 - y0) / mb as f32);
    let n = 32usize; // sgemm matrix dimension
    let img = 96usize; // image_filter side
    let ramp = |len: usize, k: f32| (0..len).map(|i| (i as f32 * k).sin() + 1.5).collect::<Vec<f32>>();
    let w = image_filter::GAUSSIAN;
    let f = |v| ArgSpec::Value(Arg::Float(v));
    let f4 = |v| ArgSpec::Value(Arg::Float4(v));
    vec![
        Workload {
            app: "mandelbrot",
            source: mandelbrot::kernel_source(),
            kernel: "mandelbrot",
            args: vec![f(x0), f(y0), f(dx), f(dy)],
            out_shape: vec![mb, mb],
        },
        Workload {
            app: "sgemm",
            source: sgemm::kernel_source(n),
            kernel: "sgemm",
            args: vec![
                ArgSpec::Stream(vec![n, n], ramp(n * n, 0.37)),
                ArgSpec::Stream(vec![n, n], ramp(n * n, 0.11)),
            ],
            out_shape: vec![n, n],
        },
        Workload {
            app: "flops",
            source: Flops { iters: 96 }.kernel_source(),
            kernel: "flops",
            args: vec![
                ArgSpec::Stream(vec![64, 64], ramp(64 * 64, 0.13)),
                ArgSpec::Stream(vec![64, 64], ramp(64 * 64, 0.29)),
            ],
            out_shape: vec![64, 64],
        },
        Workload {
            app: "image_filter",
            source: image_filter::KERNEL.to_string(),
            kernel: "conv3x3",
            args: vec![
                ArgSpec::Stream(vec![img, img], ramp(img * img, 0.41)),
                f4([w[0], w[1], w[2], w[3]]),
                f4([w[4], w[5], w[6], w[7]]),
                f(w[8]),
            ],
            out_shape: vec![img, img],
        },
        Workload {
            app: "reduce_min",
            source: REDUCE_MIN_SRC.to_string(),
            kernel: "rmin",
            // Deterministic ramp; clamp bounds the fold operand, the
            // raw data can range freely.
            args: vec![ArgSpec::Stream(
                vec![REDUCE_N],
                (0..REDUCE_N).map(|i| (i % 977) as f32 * 0.013 - 4.0).collect(),
            )],
            out_shape: Vec::new(),
        },
    ]
}

/// A workload compiled and bound on one context.
pub struct Prepared {
    ctx: BrookContext,
    module: BrookModule,
    streams: Vec<Option<Stream>>,
    out: Option<Stream>,
}

/// Compiles `w` on `ctx` and uploads its inputs.
///
/// # Errors
/// Compile, stream or transfer failures.
pub fn prepare(w: &Workload, mut ctx: BrookContext) -> Result<Prepared, BrookError> {
    let module = ctx.compile(&w.source)?;
    let mut streams = Vec::new();
    for a in &w.args {
        streams.push(match a {
            ArgSpec::Stream(shape, data) => {
                let s = ctx.stream(shape)?;
                ctx.write(&s, data)?;
                Some(s)
            }
            ArgSpec::Value(_) => None,
        });
    }
    let out = if w.is_reduce() {
        None
    } else {
        Some(ctx.stream(&w.out_shape)?)
    };
    Ok(Prepared {
        ctx,
        module,
        streams,
        out,
    })
}

/// One dispatch: `run` for map rows, `reduce` for the reduce row
/// (whose scalar result is returned).
///
/// # Errors
/// Backend failures.
pub fn dispatch(p: &mut Prepared, w: &Workload) -> Result<Option<f32>, BrookError> {
    if w.is_reduce() {
        let input = p.streams[0].as_ref().expect("reduce row binds one input stream");
        return p.ctx.reduce(&p.module, w.kernel, input).map(Some);
    }
    let mut args: Vec<Arg<'_>> = w
        .args
        .iter()
        .zip(&p.streams)
        .map(|(a, s)| match (a, s) {
            (ArgSpec::Value(v), _) => *v,
            (ArgSpec::Stream(..), Some(s)) => Arg::Stream(s),
            (ArgSpec::Stream(..), None) => unreachable!("stream argument without a stream"),
        })
        .collect();
    args.push(Arg::Stream(p.out.as_ref().expect("map row binds an output")));
    p.ctx.run(&p.module, w.kernel, &args).map(|()| None)
}

/// One dispatch, then its output: the output stream, or the reduce
/// scalar as a one-element vector.
///
/// # Errors
/// Backend or transfer failures.
pub(crate) fn dispatch_output(p: &mut Prepared, w: &Workload) -> Result<Vec<f32>, BrookError> {
    let scalar = dispatch(p, w)?;
    match &p.out {
        Some(out) => p.ctx.read(out),
        None => Ok(scalar.into_iter().collect()),
    }
}

/// Fails unless `got` equals `want` bit for bit.
///
/// # Errors
/// The first differing element, or a length mismatch.
pub(crate) fn bitwise_equal(what: &str, want: &[f32], got: &[f32]) -> Result<(), BrookError> {
    if want.len() != got.len() {
        return Err(BrookError::Usage(format!(
            "{what}: {} elements, expected {}",
            got.len(),
            want.len()
        )));
    }
    match want.iter().zip(got).position(|(x, y)| x.to_bits() != y.to_bits()) {
        None => Ok(()),
        Some(i) => Err(BrookError::Usage(format!(
            "{what}: element {i} is {}, expected {}",
            got[i], want[i]
        ))),
    }
}

/// The reduce planner's admission evidence beyond the rung checks: the
/// forced-scalar context (the `Tier` rung's) admits no vectorized
/// reduce, and an `f32` sum, which is not reassociation-safe, is
/// rejected even with SIMD on. That the SIMD context admits the `min`
/// fold is [`Rung::check`]'s job.
///
/// # Errors
/// Compile failures, or either kernel admitted.
fn check_reduce_admission() -> Result<(), BrookError> {
    for (rung, source, kernel) in [
        (Rung::Tier, REDUCE_MIN_SRC, "rmin"),
        (Rung::Simd, REDUCE_SUM_SRC, "rsum"),
    ] {
        let module = rung.context().compile(source)?;
        if module
            .report
            .simd_reduces
            .iter()
            .any(|r| r.kernel == kernel && r.admitted)
        {
            return Err(BrookError::Usage(format!(
                "{kernel}: the {rung:?} rung's context admitted it to the vectorized reduce"
            )));
        }
    }
    Ok(())
}

/// Binds `w` on `rung`, checks its engine ([`Rung::check`]) and its
/// output against `want`, the AST oracle's, with one dispatch.
///
/// # Errors
/// Compile/run failures, another engine, or a bitwise disagreement.
fn check_rung(rung: Rung, w: &Workload, want: &[f32]) -> Result<Prepared, BrookError> {
    let mut p = prepare(w, rung.context())?;
    rung.check(&p, w)?;
    let got = dispatch_output(&mut p, w)?;
    bitwise_equal(&format!("{}: rung {rung:?} vs the AST oracle", w.app), want, &got)?;
    Ok(p)
}

/// One workload bound on every rung that runs it, engine-checked and
/// bitwise-agreed with the AST oracle.
pub struct CheckedRow {
    /// The workload.
    pub workload: Workload,
    /// The rungs that run it, slowest first, each on its own context.
    pub rungs: Vec<(Rung, Prepared)>,
}

/// Binds every workload on every rung that runs it, checks each rung's
/// engine ([`Rung::check`]) and output, and the reduce planner's
/// admissions ([`check_reduce_admission`]). Each rung dispatches once;
/// that dispatch doubles as its warm-up. The reduce row, which the AST
/// rung does not run, is checked against an untimed AST dispatch.
///
/// # Errors
/// Compile/run failures, a rung that ran another engine, a wrong
/// reduce admission, or any bitwise disagreement with the oracle.
pub fn check_ladder() -> Result<Vec<CheckedRow>, BrookError> {
    check_reduce_admission()?;
    let mut rows = Vec::new();
    for w in workloads() {
        let mut oracle = prepare(&w, Rung::Ast.context())?;
        Rung::Ast.check(&oracle, &w)?;
        let want = dispatch_output(&mut oracle, &w)?;
        let mut rungs = Vec::new();
        if Rung::Ast.runs(&w) {
            rungs.push((Rung::Ast, oracle));
        }
        for rung in Rung::ALL[1..].iter().copied().filter(|r| r.runs(&w)) {
            rungs.push((rung, check_rung(rung, &w, &want)?));
        }
        rows.push(CheckedRow { workload: w, rungs });
    }
    Ok(rows)
}

/// One workload's best-of-N time on each rung.
#[derive(Debug, Clone)]
pub struct LadderRow {
    /// App name.
    pub app: &'static str,
    /// Elements per dispatch (output elements, or reduce input length).
    pub elements: usize,
    /// Best ns per dispatch, indexed like [`Rung::ALL`]; `None` where
    /// the rung does not run the row.
    pub ns: [Option<u128>; 5],
}

impl LadderRow {
    /// Every adjacent pair of the rungs that ran this row where the
    /// faster rung is not strictly faster, as messages. On a host
    /// whose SIMD detection reports scalar, the `Simd` rung is the
    /// `Tier` engine, so comparisons against it are skipped.
    pub fn regressions(&self) -> Vec<String> {
        let ran: Vec<(Rung, u128)> = Rung::ALL
            .iter()
            .zip(&self.ns)
            .filter_map(|(r, ns)| ns.map(|ns| (*r, ns)))
            .collect();
        ran.windows(2)
            .filter(|pair| pair[1].0 != Rung::Simd || detect() != SimdLevel::Scalar)
            .filter(|pair| pair[1].1 >= pair[0].1)
            .map(|pair| {
                format!(
                    "{}: {:?} ({} ns) is not faster than {:?} ({} ns)",
                    self.app, pair[1].0, pair[1].1, pair[0].0, pair[0].1
                )
            })
            .collect()
    }
}

/// Times every checked row `reps` times per rung, round-robin: each
/// repetition dispatches every rung once, in ladder order, and each
/// rung keeps its best.
///
/// # Errors
/// Backend failures.
pub fn time_ladder(rows: &mut [CheckedRow], reps: usize) -> Result<Vec<LadderRow>, BrookError> {
    let mut out = Vec::new();
    for row in rows {
        let mut ns = [None; 5];
        for _ in 0..reps {
            for (rung, p) in &mut row.rungs {
                let t = Instant::now();
                dispatch(p, &row.workload)?;
                let dt = t.elapsed().as_nanos();
                let best = &mut ns[*rung as usize];
                *best = Some(best.map_or(dt, |b: u128| b.min(dt)));
            }
        }
        out.push(LadderRow {
            app: row.workload.app,
            elements: row.workload.elements(),
            ns,
        });
    }
    Ok(out)
}

/// Renders the ladder table (ms per dispatch).
pub fn render_ladder_table(rows: &[LadderRow], reps: usize) -> String {
    let mut out = format!(
        "Execution ladder (SIMD level {}, L={}, best-of-{reps} round-robin, ms per dispatch)\n",
        detect(),
        brook_ir::lanes::LANES
    );
    out.push_str(&format!("{:<14} {:>9}", "app", "elements"));
    for rung in Rung::ALL {
        out.push_str(&format!(" {:>10}", format!("{rung:?}").to_lowercase()));
    }
    out.push('\n');
    for r in rows {
        out.push_str(&format!("{:<14} {:>9}", r.app, r.elements));
        for ns in r.ns {
            let cell = ns.map_or_else(|| "-".into(), |ns| format!("{:.3}", ns as f64 / 1e6));
            out.push_str(&format!(" {cell:>10}"));
        }
        out.push('\n');
    }
    out
}

/// Serializes the rows as the `BENCH_ladder.json` document.
pub fn ladder_json(rows: &[LadderRow], reps: usize) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let mut row = format!("    {{\"app\": \"{}\", \"elements\": {}", r.app, r.elements);
            for (rung, ns) in Rung::ALL.iter().zip(r.ns) {
                let v = ns.map_or_else(|| "null".into(), |ns| ns.to_string());
                row.push_str(&format!(", \"{}_ns\": {v}", format!("{rung:?}").to_lowercase()));
            }
            row + "}"
        })
        .collect();
    format!(
        "{{\n  \"bench\": \"ladder\",\n  \"unit\": \"ns/dispatch\",\n  \"level\": \"{}\",\n  \"lanes\": {},\n  \
         \"reps\": {reps},\n  \"rows\": [\n{}\n  ]\n}}\n",
        detect(),
        brook_ir::lanes::LANES,
        rows.join(",\n")
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The AST oracle's output for every workload, engine-checked,
    /// computed once and shared by the per-rung tests.
    fn oracle_outputs() -> &'static [Vec<f32>] {
        static OUTPUTS: OnceLock<Vec<Vec<f32>>> = OnceLock::new();
        OUTPUTS.get_or_init(|| {
            workloads()
                .iter()
                .map(|w| {
                    let mut p = prepare(w, Rung::Ast.context()).expect("prepare");
                    Rung::Ast.check(&p, w).expect("AST engine");
                    dispatch_output(&mut p, w).expect("AST dispatch")
                })
                .collect()
        })
    }

    /// One rung alone: its engine and bitwise agreement with the oracle
    /// on each of the `rows` rows it runs (the `Simd` rung adds the
    /// reduce admissions), then its column of the table and the JSON.
    pub(crate) fn check_one_rung(rung: Rung, rows: usize) {
        if rung == Rung::Simd {
            check_reduce_admission().expect("reduce admissions");
        }
        let apps: Vec<&str> = workloads()
            .iter()
            .zip(oracle_outputs())
            .filter(|(w, _)| rung.runs(w))
            .map(|(w, want)| {
                check_rung(rung, w, want).unwrap_or_else(|e| panic!("{e}"));
                w.app
            })
            .collect();
        assert_eq!(apps.len(), rows, "{rung:?} runs {apps:?}");
        assert_eq!(apps[0], "mandelbrot");
        let mut ns = [None; 5];
        ns[rung as usize] = Some(1_500_000);
        let row = LadderRow {
            app: apps[0],
            elements: 1,
            ns,
        };
        assert!(row.regressions().is_empty());
        let name = format!("{rung:?}").to_lowercase();
        let json = ladder_json(std::slice::from_ref(&row), 1);
        assert!(json.contains("\"bench\": \"ladder\""));
        assert!(json.contains(&format!("\"{name}_ns\": 1500000")), "{json}");
        let table = render_ladder_table(&[row], 1);
        assert!(
            table.contains("mandelbrot") && table.contains(" 1.500"),
            "{table}"
        );
    }

    /// Engines and bitwise agreement, one dispatch per rung; no timing.
    #[test]
    fn every_rung_runs_its_engine_and_agrees_with_the_oracle() {
        let rows = check_ladder().expect("ladder check");
        let shape: Vec<(&str, Vec<Rung>)> = rows
            .iter()
            .map(|r| (r.workload.app, r.rungs.iter().map(|(rung, _)| *rung).collect()))
            .collect();
        assert_eq!(shape.len(), 5);
        for (app, rungs) in &shape[..4] {
            assert_eq!(rungs, &Rung::ALL, "{app}");
        }
        assert_eq!(shape[4], ("reduce_min", vec![Rung::Interp, Rung::Simd]));
    }

    /// The mislabel the per-pair harnesses shipped: the default `cpu()`
    /// context timed as the lane engine or the scalar interpreter.
    #[test]
    fn a_rung_on_another_rungs_context_is_rejected() {
        let w = workloads()
            .into_iter()
            .find(|w| w.app == "sgemm")
            .expect("sgemm row");
        let default = prepare(&w, BrookContext::cpu()).expect("prepare");
        for rung in [Rung::Ast, Rung::Interp, Rung::Lanes, Rung::Tier] {
            let err = rung.check(&default, &w).expect_err("mislabelled rung");
            assert!(err.to_string().contains("ran another engine"), "{err}");
        }
        let lanes = prepare(&w, Rung::Lanes.context()).expect("prepare");
        assert!(Rung::Lanes.check(&lanes, &w).is_ok());
        assert!(Rung::Interp.check(&lanes, &w).is_err());
    }

    /// The gate, the table and the JSON on synthetic timings.
    #[test]
    fn regressions_compare_adjacent_rungs_that_ran() {
        let row = |app, ns| LadderRow { app, elements: 1, ns };
        let ordered = row("mandelbrot", [Some(50), Some(40), Some(30), Some(20), Some(10)]);
        assert!(ordered.regressions().is_empty());
        let slow_lanes = row("x", [Some(50), Some(40), Some(40), Some(20), Some(10)]).regressions();
        assert_eq!(slow_lanes.len(), 1);
        assert!(slow_lanes[0].contains("Lanes"), "{}", slow_lanes[0]);
        // The reduce row compares Interp with Simd directly.
        let reduce = row("reduce_min", [None, Some(40), None, None, Some(40)]);
        assert_eq!(
            reduce.regressions().len(),
            usize::from(detect() != SimdLevel::Scalar)
        );
        let rows = [ordered, reduce];
        let json = ladder_json(&rows, 3);
        assert!(json.contains("\"app\": \"reduce_min\", \"elements\": 1, \"ast_ns\": null"));
        assert!(json.contains("\"interp_ns\": 40, \"lanes_ns\": 30, \"tier_ns\": 20, \"simd_ns\": 10},\n"));
        let table = render_ladder_table(&rows, 3);
        let header: Vec<&str> = table.lines().nth(1).unwrap_or("").split_whitespace().collect();
        assert_eq!(
            header,
            ["app", "elements", "ast", "interp", "lanes", "tier", "simd"]
        );
    }
}
