//! Driving one generated case through the CPU engine ladder and every
//! registered device backend, and cross-checking the results.
//!
//! The comparison policy generalizes the paper's validation story (§6:
//! "the correctness of the GPU implementation is retained by validating
//! it with the CPU output"):
//!
//! * the first spec in the matrix is the reference — `cpu-ast`, the AST
//!   tree walker, which never touches BrookIR;
//! * every spec whose name starts with `cpu` must match the reference
//!   **bit-for-bit**;
//! * device backends (`gles2-*`) must match within the storage
//!   tolerance, scaled relatively as in the app-level matrix.
//!
//! The ladder ([`cpu_ladder`]) has one spec per link of the compilation
//! and execution chain, so which rungs diverge localizes the fault:
//!
//! | spec                    | engine                               | diverging alone points at |
//! |-------------------------|--------------------------------------|---------------------------|
//! | `cpu-ast`               | AST tree walker (reference)          | —                         |
//! | `cpu-noopt`             | Tier-2 + SIMD on the unoptimized IR  | lowering                  |
//! | `cpu-scalar`            | scalar flat-IR interpreter           | the pass pipeline         |
//! | `cpu-lanes`             | lane engine, Tier-2 off              | the lane engine           |
//! | `cpu-simd-off`          | Tier-2 closure chains, SIMD off      | the tier compiler         |
//! | `cpu-sse2`              | Tier-2 with the SSE2 kernels         | the SSE2 kernels          |
//! | `cpu`                   | Tier-2 with the host's widest SIMD   | the AVX2 kernels          |
//! | `cpu-parallel-simd-off` | Tier-2 in worker chunks, SIMD off    | chunking or slab reuse    |
//! | `cpu-parallel`          | Tier-2 + SIMD in worker chunks       | SIMD under chunking       |
//!
//! A forced SIMD level above the host's resolves down (`compile` caps
//! it at `detect()`), so the ladder is portable. Every run also records
//! the spec's [`Admissions`], read from its compliance report.

use crate::gen::FuzzCase;
use brook_auto::{registered_backends, Arg, BackendSpec, BrookContext, BrookModule, ModuleArtifact};
use brook_cert::ComplianceReport;
use brook_ir::simd::SimdMode;

/// The CPU engine ladder, reference first (see the module docs).
pub fn cpu_ladder() -> Vec<BackendSpec> {
    fn spec(name: &'static str, make: fn() -> BrookContext) -> BackendSpec {
        BackendSpec { name, make }
    }
    fn tuned(mut ctx: BrookContext, knob: impl FnOnce(&mut BrookContext)) -> BrookContext {
        knob(&mut ctx);
        ctx
    }
    vec![
        spec("cpu-ast", BrookContext::cpu_ast_oracle),
        spec("cpu-noopt", || {
            tuned(BrookContext::cpu(), |c| c.ir_optimize = false)
        }),
        spec("cpu-scalar", || {
            tuned(BrookContext::cpu(), |c| c.lane_execution = false)
        }),
        spec("cpu-lanes", || {
            tuned(BrookContext::cpu(), |c| c.tier_execution = false)
        }),
        spec("cpu-simd-off", || {
            tuned(BrookContext::cpu(), |c| c.simd_mode = SimdMode::Off)
        }),
        spec("cpu-sse2", || {
            tuned(BrookContext::cpu(), |c| c.simd_mode = SimdMode::Sse2)
        }),
        spec("cpu", BrookContext::cpu),
        spec("cpu-parallel-simd-off", || {
            tuned(BrookContext::cpu_parallel(), |c| c.simd_mode = SimdMode::Off)
        }),
        spec("cpu-parallel", BrookContext::cpu_parallel),
    ]
}

/// The backend matrix one case runs against, plus the comparison
/// tolerance for device backends.
pub struct Matrix {
    /// Context factories, reference first.
    pub specs: Vec<BackendSpec>,
    /// Relative tolerance for non-CPU backends.
    pub tolerance: f32,
}

impl Matrix {
    /// The CPU ladder alone, bitwise everywhere — for campaigns whose
    /// inputs the device cannot take (special floats, inputs shaped
    /// unlike the domain, the counted-loop kernels).
    pub fn cpu() -> Self {
        Matrix {
            specs: cpu_ladder(),
            tolerance: 0.0,
        }
    }
}

impl Default for Matrix {
    /// The CPU ladder plus every registered device backend, with the
    /// app-level storage tolerance.
    fn default() -> Self {
        let mut specs = cpu_ladder();
        specs.extend(
            registered_backends()
                .into_iter()
                .filter(|s| !s.name.starts_with("cpu")),
        );
        Matrix {
            specs,
            tolerance: 1e-3,
        }
    }
}

/// One spec's admission decisions for a case, counted over its kernels
/// from the compliance report of its compile. A spec with an engine
/// switched off records no decisions for it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Admissions {
    /// Kernels the lane planner admitted.
    pub lane_vectorized: u32,
    /// Kernels the lane planner rejected.
    pub lane_fallback: u32,
    /// Kernels compiled to Tier-2 closure chains.
    pub tier_compiled: u32,
    /// Kernels Tier-2 rejected (lane rejections included).
    pub tier_fallback: u32,
    /// Tier-2 kernels whose block steps use a SIMD level.
    pub simd_compiled: u32,
    /// Loops Tier-2 runs on a static trip count.
    pub counted_loops: u32,
    /// Counted loops that take the quiescent exit.
    pub quiescent_loops: u32,
}

impl Admissions {
    /// Counts the decisions `report` records.
    pub fn of(report: &ComplianceReport) -> Self {
        let mut a = Admissions::default();
        for plan in &report.lane_plans {
            if plan.vectorized {
                a.lane_vectorized += 1;
            } else {
                a.lane_fallback += 1;
            }
        }
        for plan in report.tier_plans.iter() {
            if !plan.compiled {
                a.tier_fallback += 1;
                continue;
            }
            a.tier_compiled += 1;
            a.simd_compiled += u32::from(!plan.detail.contains("simd scalar"));
            // The detail ends in `N counted loops (M quiescent-exit)`.
            let loops = plan.detail.rsplit_once(", ").and_then(|(_, tail)| {
                let (c, q) = tail
                    .strip_suffix(" quiescent-exit)")?
                    .split_once(" counted loops (")?;
                Some((c.parse::<u32>().ok()?, q.parse::<u32>().ok()?))
            });
            let (counted, quiescent) = loops.unwrap_or_default();
            a.counted_loops += counted;
            a.quiescent_loops += quiescent;
        }
        a
    }

    /// Adds `other`'s counts to these.
    pub fn add(&mut self, other: &Admissions) {
        self.lane_vectorized += other.lane_vectorized;
        self.lane_fallback += other.lane_fallback;
        self.tier_compiled += other.tier_compiled;
        self.tier_fallback += other.tier_fallback;
        self.simd_compiled += other.simd_compiled;
        self.counted_loops += other.counted_loops;
        self.quiescent_loops += other.quiescent_loops;
    }
}

/// One backend's outputs for one case (one buffer per `out` stream).
#[derive(Debug, Clone, Default)]
pub struct BackendOutput {
    /// Backend name from the spec.
    pub backend: &'static str,
    /// Output buffers in declaration order.
    pub outputs: Vec<Vec<f32>>,
    /// The spec's admission decisions for the case's kernels.
    pub admissions: Admissions,
}

/// A cross-backend disagreement.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The backend that disagreed with the CPU reference.
    pub backend: &'static str,
    /// Which `out` stream diverged.
    pub output_index: usize,
    /// Which element within it.
    pub element: usize,
    /// The CPU reference value.
    pub reference: f32,
    /// The diverging backend's value.
    pub actual: f32,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: output {} element {}: cpu {} vs {}",
            self.backend, self.output_index, self.element, self.reference, self.actual
        )
    }
}

/// Why a case failed.
#[derive(Debug, Clone)]
pub enum CaseFailure {
    /// A backend refused to compile or run a program every other backend
    /// accepted — itself a portability bug.
    Setup {
        /// Offending backend.
        backend: &'static str,
        /// Error rendering.
        message: String,
    },
    /// Backends disagreed on a result.
    Divergence(Divergence),
}

impl std::fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaseFailure::Setup { backend, message } => {
                write!(f, "{backend}: setup failed: {message}")
            }
            CaseFailure::Divergence(d) => write!(f, "divergence: {d}"),
        }
    }
}

/// The case's own inputs, each bound to a stream of the domain's shape.
pub(crate) fn domain_inputs(case: &FuzzCase) -> Vec<(&[usize], &[f32])> {
    case.inputs
        .iter()
        .map(|data| (case.domain_shape.as_slice(), data.as_slice()))
        .collect()
}

/// Compiles `source` on `ctx`, adopting one of `artifacts` when one
/// shares its front and adding a new one when none does. `compile` is
/// `compile_artifact` (a front, keyed by the certification settings,
/// `ir_optimize` and `clamp_elision`, planned for the context's engine)
/// then `adopt_artifact`, which refuses another front and re-plans one
/// for another engine; so the module is the one `ctx.compile` builds,
/// and [`Matrix::default`] runs three fronts a case, not one per rung.
///
/// # Errors
/// Compile failures.
pub(crate) fn compile_shared(
    ctx: &mut BrookContext,
    source: &str,
    artifacts: &mut Vec<ModuleArtifact>,
) -> Result<BrookModule, String> {
    if let Some(module) = artifacts.iter().find_map(|a| ctx.adopt_artifact(a).ok()) {
        return Ok(module);
    }
    let artifact = ctx
        .compile_artifact(source)
        .map_err(|e| format!("compile: {e}"))?;
    let module = ctx.adopt_artifact(&artifact).map_err(|e| format!("adopt: {e}"))?;
    artifacts.push(artifact);
    Ok(module)
}

/// Runs `case` with `inputs` on one backend and returns its output
/// buffers and admission decisions.
fn run_on(
    spec: &BackendSpec,
    case: &FuzzCase,
    inputs: &[(&[usize], &[f32])],
    artifacts: &mut Vec<ModuleArtifact>,
) -> Result<BackendOutput, String> {
    let mut ctx: BrookContext = (spec.make)();
    let module = compile_shared(&mut ctx, &case.source, artifacts)?;
    Ok(BackendOutput {
        backend: spec.name,
        outputs: run_with_inputs(&mut ctx, &module, case, inputs)?,
        admissions: Admissions::of(&module.report),
    })
}

/// Runs an already-compiled `case` in `ctx` (streams and launch only) —
/// shared by [`run_case`] and the concurrent campaign, where the module
/// arrives via a shared artifact cache instead of a fresh compile.
pub(crate) fn run_with_module(
    ctx: &mut BrookContext,
    module: &brook_auto::BrookModule,
    case: &FuzzCase,
) -> Result<Vec<Vec<f32>>, String> {
    run_with_inputs(ctx, module, case, &domain_inputs(case))
}

/// [`run_with_module`] with elementwise input `i` bound to a stream of
/// shape `inputs[i].0` holding `inputs[i].1` instead of `case.inputs` —
/// shapes other than the domain's make the engines clamp or resample.
pub(crate) fn run_with_inputs(
    ctx: &mut BrookContext,
    module: &brook_auto::BrookModule,
    case: &FuzzCase,
    inputs: &[(&[usize], &[f32])],
) -> Result<Vec<Vec<f32>>, String> {
    let mut input_streams = Vec::new();
    for (shape, data) in inputs {
        let s = ctx.stream(shape).map_err(|e| format!("input stream: {e}"))?;
        ctx.write(&s, data).map_err(|e| format!("write: {e}"))?;
        input_streams.push(s);
    }
    let gather_stream = match &case.gather {
        Some(g) => {
            let s = ctx.stream(&g.shape).map_err(|e| format!("gather stream: {e}"))?;
            ctx.write(&s, &g.data).map_err(|e| format!("gather write: {e}"))?;
            Some(s)
        }
        None => None,
    };
    let mut out_streams = Vec::new();
    for _ in 0..case.n_outputs {
        out_streams.push(
            ctx.stream(&case.domain_shape)
                .map_err(|e| format!("output stream: {e}"))?,
        );
    }
    // Canonical parameter order (see `FuzzCase` docs): inputs, gather,
    // scalars, outputs.
    let mut args: Vec<Arg<'_>> = Vec::new();
    for s in &input_streams {
        args.push(Arg::Stream(s));
    }
    if let Some(g) = &gather_stream {
        args.push(Arg::Stream(g));
    }
    for v in &case.scalars {
        args.push(Arg::Float(*v));
    }
    for o in &out_streams {
        args.push(Arg::Stream(o));
    }
    let kernel = case
        .program
        .kernels()
        .next()
        .ok_or("case has no kernel")?
        .name
        .clone();
    ctx.run(module, &kernel, &args).map_err(|e| format!("run: {e}"))?;
    let mut outputs = Vec::new();
    for o in &out_streams {
        outputs.push(ctx.read(o).map_err(|e| format!("read: {e}"))?);
    }
    Ok(outputs)
}

/// Runs a case across the whole matrix and cross-checks every backend
/// against the CPU reference.
///
/// # Errors
/// [`CaseFailure::Setup`] when a backend rejects what the others accept,
/// [`CaseFailure::Divergence`] on a result mismatch.
pub fn run_case(case: &FuzzCase, matrix: &Matrix) -> Result<Vec<BackendOutput>, CaseFailure> {
    run_case_with_inputs(case, matrix, &domain_inputs(case))
}

/// [`run_case`] with input `i` bound to a stream of shape `inputs[i].0`
/// holding `inputs[i].1` (see [`run_with_inputs`]).
///
/// # Errors
/// As [`run_case`].
pub(crate) fn run_case_with_inputs(
    case: &FuzzCase,
    matrix: &Matrix,
    inputs: &[(&[usize], &[f32])],
) -> Result<Vec<BackendOutput>, CaseFailure> {
    assert!(
        matrix
            .specs
            .first()
            .map(|s| s.name)
            .is_some_and(|n| n.starts_with("cpu")),
        "the matrix must lead with a CPU reference"
    );
    let mut runs: Vec<BackendOutput> = Vec::new();
    let mut artifacts = Vec::new();
    for spec in &matrix.specs {
        runs.push(
            run_on(spec, case, inputs, &mut artifacts).map_err(|message| CaseFailure::Setup {
                backend: spec.name,
                message,
            })?,
        );
    }
    let reference = runs[0].clone();
    for run in &runs[1..] {
        if let Some(d) = compare(&reference, run, matrix.tolerance) {
            return Err(CaseFailure::Divergence(d));
        }
    }
    Ok(runs)
}

/// Runs a case on every backend *without* cross-checking, collecting
/// whatever outputs each backend produces (backends that error are
/// skipped). Used to assemble repro bundles after a divergence.
pub fn collect_backend_outputs(case: &FuzzCase, matrix: &Matrix) -> Vec<BackendOutput> {
    let mut artifacts = Vec::new();
    matrix
        .specs
        .iter()
        .filter_map(|spec| run_on(spec, case, &domain_inputs(case), &mut artifacts).ok())
        .collect()
}

/// Compares one backend against the reference under the policy described
/// in the module docs; `None` means agreement.
///
/// Shape disagreements (missing output streams, truncated buffers) are
/// divergences too — a harness built to catch buggy backends must not
/// let a short buffer zip away the comparison. The reported element is
/// the first index present on only one side, with `NaN` standing in for
/// the missing value.
pub fn compare(reference: &BackendOutput, run: &BackendOutput, tol: f32) -> Option<Divergence> {
    let bitwise = run.backend.starts_with("cpu");
    if reference.outputs.len() != run.outputs.len() {
        return Some(Divergence {
            backend: run.backend,
            output_index: reference.outputs.len().min(run.outputs.len()),
            element: 0,
            reference: f32::NAN,
            actual: f32::NAN,
        });
    }
    for (oi, (r, a)) in reference.outputs.iter().zip(&run.outputs).enumerate() {
        if r.len() != a.len() {
            let cut = r.len().min(a.len());
            return Some(Divergence {
                backend: run.backend,
                output_index: oi,
                element: cut,
                reference: r.get(cut).copied().unwrap_or(f32::NAN),
                actual: a.get(cut).copied().unwrap_or(f32::NAN),
            });
        }
        for (ei, (rv, av)) in r.iter().zip(a).enumerate() {
            let agree = if bitwise {
                rv.to_bits() == av.to_bits()
            } else {
                let scale = 1.0f32.max(rv.abs());
                (rv - av).abs() <= tol * scale
            };
            if !agree {
                return Some(Divergence {
                    backend: run.backend,
                    output_index: oi,
                    element: ei,
                    reference: *rv,
                    actual: *av,
                });
            }
        }
    }
    None
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gen::{gen_case, GenConfig};
    use brook_ir::simd::{auto, detect, SimdLevel};

    /// Checks, from the compliance report of `source` compiled on spec
    /// `name`, that the spec runs the engine its name claims — the
    /// conditions the benchmark's execution ladder checks its rungs by.
    fn check_engine(name: &str, source: &str) -> Result<(), String> {
        let spec = cpu_ladder()
            .into_iter()
            .find(|s| s.name == name)
            .ok_or(format!("no spec `{name}`"))?;
        let mut ctx = (spec.make)();
        let module = ctx.compile(source).map_err(|e| format!("{name}: compile: {e}"))?;
        let report = &module.report;
        let backend = ctx.backend_name();
        let vectorized = report.lane_plans.first().is_some_and(|p| p.vectorized);
        let tier = report.tier_plans.first();
        let compiled = tier.is_some_and(|p| p.compiled);
        let detail = tier.map_or("", |p| p.detail.as_str());
        let scalar_steps = detail.contains("simd scalar");
        // `Auto` may resolve to scalar under `BROOK_SIMD=off`; a forced
        // SSE2 only on a host without it.
        let auto_simd = auto() != SimdLevel::Scalar;
        let sse2 = if detect() == SimdLevel::Scalar {
            "simd scalar"
        } else {
            "simd sse2"
        };
        let optimized = !report.passes.is_empty();
        let ok = match name {
            "cpu-ast" => {
                backend == "cpu-ast"
                    && !optimized
                    && report.lane_plans.is_empty()
                    && report.tier_plans.is_empty()
                    && report.simd_reduces.is_empty()
            }
            "cpu-noopt" => backend == "cpu" && !optimized && compiled && scalar_steps != auto_simd,
            "cpu-scalar" => backend == "cpu" && optimized && report.lane_plans.is_empty() && !compiled,
            "cpu-lanes" => backend == "cpu" && optimized && vectorized && report.tier_plans.is_empty(),
            "cpu-simd-off" => backend == "cpu" && optimized && compiled && scalar_steps,
            "cpu-sse2" => backend == "cpu" && optimized && compiled && detail.contains(sse2),
            "cpu" => backend == "cpu" && optimized && compiled && scalar_steps != auto_simd,
            "cpu-parallel-simd-off" => backend == "cpu-parallel" && optimized && compiled && scalar_steps,
            "cpu-parallel" => backend == "cpu-parallel" && optimized && compiled && scalar_steps != auto_simd,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "spec `{name}` ran another engine: backend {backend}, {} passes, lane {vectorized}, \
                 tier `{detail}`\n{source}",
                report.passes.len()
            ))
        }
    }

    /// Checks the rungs `names` on one generated case and one counted
    /// loop, both lane-vectorized and tier-compiled on the ladder's top.
    pub(crate) fn check_rungs(names: &[&str]) {
        let case = gen_case(0xB400_A070, 0, &GenConfig::default());
        let (loop_case, _) = crate::tier::gen_loop_case(0x100F_5EED, 1);
        for name in names {
            for source in [&case.source, &loop_case.source] {
                check_engine(name, source).unwrap_or_else(|e| panic!("{e}"));
            }
        }
    }

    #[test]
    fn each_spec_runs_the_engine_its_name_claims() {
        let names: Vec<&str> = cpu_ladder().iter().map(|s| s.name).collect();
        check_rungs(&names);
    }

    #[test]
    fn simple_case_agrees_everywhere() {
        let case = gen_case(0xD1FF, 0, &GenConfig::default());
        let runs = run_case(&case, &Matrix::default()).unwrap_or_else(|f| {
            panic!("case failed: {f}\n{}", case.source);
        });
        assert_eq!(runs.len(), 9 + 2, "the CPU ladder and both device backends");
        assert_eq!(runs[0].backend, "cpu-ast");
        assert_eq!(runs[0].outputs.len(), case.n_outputs);
    }

    /// Runs every kernel of `module` once with arguments derived from its
    /// signature: one entry per kernel, its output bits.
    fn run_every_kernel(ctx: &mut BrookContext, module: &BrookModule, source: &str) -> Vec<Vec<u32>> {
        use brook_lang::ast::{ParamKind, ScalarKind};
        let checked = brook_lang::parse_and_check(source).expect("front end");
        let data = |n: usize| -> Vec<f32> { (0..n).map(|i| (i * 7 % 13) as f32 * 0.25 - 1.0).collect() };
        let stream = |ctx: &mut BrookContext, shape: &[usize], width: u8| {
            let s = ctx.stream_with_width(shape, width)?;
            ctx.write(&s, &data(shape.iter().product::<usize>() * usize::from(width)))?;
            Ok::<_, brook_auto::BrookError>(s)
        };
        let mut results = Vec::new();
        for k in checked.program.kernels() {
            let run = |ctx: &mut BrookContext| -> Result<Vec<u32>, brook_auto::BrookError> {
                if k.is_reduce {
                    let input = stream(ctx, &[37], 1)?;
                    return Ok(vec![ctx.reduce(module, &k.name, &input)?.to_bits()]);
                }
                let domain = [5, 7];
                let mut streams = Vec::new();
                for p in &k.params {
                    streams.push(match p.kind {
                        ParamKind::Stream | ParamKind::OutStream => Some(stream(ctx, &domain, p.ty.width)?),
                        ParamKind::Gather { rank } => {
                            Some(stream(ctx, &vec![3; usize::from(rank)], p.ty.width)?)
                        }
                        ParamKind::Scalar | ParamKind::ReduceOut => None,
                    });
                }
                let args: Vec<Arg> = k
                    .params
                    .iter()
                    .zip(&streams)
                    .map(|(p, s)| match (s, p.ty.scalar, p.ty.width) {
                        (Some(s), ..) => Arg::Stream(s),
                        (None, ScalarKind::Int | ScalarKind::Bool, _) => Arg::Int(2),
                        (None, _, 2) => Arg::Float2([0.5, -1.5]),
                        (None, _, 3) => Arg::Float3([0.5, -1.5, 2.0]),
                        (None, _, 4) => Arg::Float4([0.5, -1.5, 2.0, 3.0]),
                        (None, ..) => Arg::Float(0.75),
                    })
                    .collect();
                ctx.run(module, &k.name, &args)?;
                let mut bits = Vec::new();
                for (p, s) in k.params.iter().zip(&streams) {
                    if let (ParamKind::OutStream, Some(s)) = (p.kind, s) {
                        bits.extend(ctx.read(s)?.iter().map(|v| v.to_bits()));
                    }
                }
                Ok(bits)
            };
            results.push(run(ctx).unwrap_or_else(|e| panic!("{}: {e}", k.name)));
        }
        results
    }

    /// The shared route (`compile_shared`: one front per front
    /// configuration, re-planned per rung) builds the module a direct
    /// `compile` on a fresh context builds, on every spec: the same
    /// report, the same IR and bitwise the same outputs.
    #[test]
    fn shared_route_equals_direct_route_on_every_spec() {
        let mut sources: Vec<(String, String)> = brook_apps::kernel_sources()
            .into_iter()
            .map(|(name, source)| (name.to_string(), source))
            .collect();
        sources.extend((0..64).map(|i| {
            (
                format!("case {i}"),
                gen_case(0xB400_A070, i, &GenConfig::default()).source,
            )
        }));
        let matrix = Matrix::default();
        let mut ran = 0;
        for (name, source) in &sources {
            let mut artifacts = Vec::new();
            for spec in &matrix.specs {
                let what = format!("{name} on {}", spec.name);
                let mut shared_ctx = (spec.make)();
                let shared = compile_shared(&mut shared_ctx, source, &mut artifacts)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let mut direct_ctx = (spec.make)();
                let direct = direct_ctx
                    .compile(source)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(
                    format!("{:?}", shared.report),
                    format!("{:?}", direct.report),
                    "{what}: report"
                );
                assert_eq!(
                    shared_ctx.emit_ir(&shared).unwrap(),
                    direct_ctx.emit_ir(&direct).unwrap(),
                    "{what}: IR"
                );
                let outputs = run_every_kernel(&mut shared_ctx, &shared, source);
                assert_eq!(
                    outputs,
                    run_every_kernel(&mut direct_ctx, &direct, source),
                    "{what}: outputs"
                );
                ran += outputs.len();
            }
        }
        assert!(ran >= 800, "too few kernels ran to mean anything: {ran}");
    }

    #[test]
    fn compare_detects_bit_flip_on_cpu_backend() {
        let reference = BackendOutput {
            backend: "cpu",
            outputs: vec![vec![1.0, 2.0]],
            ..BackendOutput::default()
        };
        let mut other = reference.clone();
        other.backend = "cpu-parallel";
        other.outputs[0][1] = 2.0000002; // one ulp-ish off: must be caught
        let d = compare(&reference, &other, 1e-3).expect("bitwise policy");
        assert_eq!(d.element, 1);
    }

    #[test]
    fn compare_allows_tolerance_on_device_backend() {
        let reference = BackendOutput {
            backend: "cpu",
            outputs: vec![vec![1000.0]],
            ..BackendOutput::default()
        };
        let mut gpu = reference.clone();
        gpu.backend = "gles2-packed";
        gpu.outputs[0][0] = 1000.5; // within 1e-3 relative
        assert!(compare(&reference, &gpu, 1e-3).is_none());
        gpu.outputs[0][0] = 1010.0; // outside
        assert!(compare(&reference, &gpu, 1e-3).is_some());
    }
}
