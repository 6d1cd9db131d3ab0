//! Driving one generated case through every registered backend and
//! cross-checking the results.
//!
//! The comparison policy generalizes the paper's validation story (§6:
//! "the correctness of the GPU implementation is retained by validating
//! it with the CPU output"):
//!
//! * the first backend in the matrix must be the serial CPU reference;
//! * every backend whose name starts with `cpu` must match the reference
//!   **bit-for-bit** (same interpreter core, different scheduling);
//! * device backends (`gles2-*`) must match within the storage
//!   tolerance, scaled relatively as in the app-level matrix.

use crate::gen::FuzzCase;
use brook_auto::{registered_backends, Arg, BackendSpec, BrookContext};

/// The backend matrix one case runs against, plus the comparison
/// tolerance for device backends.
pub struct Matrix {
    /// Context factories, reference first.
    pub specs: Vec<BackendSpec>,
    /// Relative tolerance for non-CPU backends.
    pub tolerance: f32,
}

impl Default for Matrix {
    /// All in-tree backends with the app-level storage tolerance.
    fn default() -> Self {
        Matrix {
            specs: registered_backends(),
            tolerance: 1e-3,
        }
    }
}

/// One backend's outputs for one case (one buffer per `out` stream).
#[derive(Debug, Clone)]
pub struct BackendOutput {
    /// Backend name from the spec.
    pub backend: &'static str,
    /// Output buffers in declaration order.
    pub outputs: Vec<Vec<f32>>,
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
fn domain_inputs(case: &FuzzCase) -> Vec<(&[usize], &[f32])> {
    case.inputs
        .iter()
        .map(|data| (case.domain_shape.as_slice(), data.as_slice()))
        .collect()
}

/// Runs `case` with `inputs` on one backend and returns its output
/// buffers.
fn run_on(
    spec: &BackendSpec,
    case: &FuzzCase,
    inputs: &[(&[usize], &[f32])],
) -> Result<Vec<Vec<f32>>, String> {
    let mut ctx: BrookContext = (spec.make)();
    let module = ctx.compile(&case.source).map_err(|e| format!("compile: {e}"))?;
    run_with_inputs(&mut ctx, &module, case, inputs)
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
        "the matrix must lead with a CPU reference (serial interpreter or AST oracle)"
    );
    let mut runs: Vec<BackendOutput> = Vec::new();
    for spec in &matrix.specs {
        let outputs = run_on(spec, case, inputs).map_err(|message| CaseFailure::Setup {
            backend: spec.name,
            message,
        })?;
        runs.push(BackendOutput {
            backend: spec.name,
            outputs,
        });
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
    matrix
        .specs
        .iter()
        .filter_map(|spec| {
            run_on(spec, case, &domain_inputs(case))
                .ok()
                .map(|outputs| BackendOutput {
                    backend: spec.name,
                    outputs,
                })
        })
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
mod tests {
    use super::*;
    use crate::gen::{gen_case, GenConfig};

    #[test]
    fn simple_case_agrees_everywhere() {
        let case = gen_case(0xD1FF, 0, &GenConfig::default());
        let runs = run_case(&case, &Matrix::default()).unwrap_or_else(|f| {
            panic!("case failed: {f}\n{}", case.source);
        });
        assert_eq!(runs.len(), registered_backends().len());
        assert_eq!(runs[0].backend, "cpu");
        assert_eq!(runs[0].outputs.len(), case.n_outputs);
    }

    #[test]
    fn compare_detects_bit_flip_on_cpu_backend() {
        let reference = BackendOutput {
            backend: "cpu",
            outputs: vec![vec![1.0, 2.0]],
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
        };
        let mut gpu = reference.clone();
        gpu.backend = "gles2-packed";
        gpu.outputs[0][0] = 1000.5; // within 1e-3 relative
        assert!(compare(&reference, &gpu, 1e-3).is_none());
        gpu.outputs[0][0] = 1010.0; // outside
        assert!(compare(&reference, &gpu, 1e-3).is_some());
    }
}
