//! The pluggable execution-backend boundary of the Brook Auto runtime.
//!
//! The paper's central claim is that one certified Brook program runs
//! unchanged on wildly different execution substrates — a low-end
//! OpenGL ES 2.0 GPU or a CPU reference — with equivalent semantics
//! (§6: "the correctness of the GPU implementation is retained by
//! validating it with the CPU output"). This module makes that boundary
//! an explicit, checkable interface instead of a closed enum:
//! [`BackendExecutor`] is everything an execution substrate must provide
//! (stream storage, kernel dispatch, reduction, telemetry), and
//! [`crate::BrookContext`] drives any implementation through it.
//!
//! Three implementations ship in-tree:
//!
//! * [`crate::cpu::CpuBackend`] — the serial reference interpreter;
//! * [`crate::cpu_parallel::ParallelCpuBackend`] — the same element
//!   semantics, with the output domain split into pieces that the
//!   caller and a process-wide helper pool claim;
//! * the OpenGL ES 2.0 simulator backend behind
//!   [`crate::BrookContext::gles2`] (native-float or packed-RGBA8
//!   storage, selected by the device profile).
//!
//! [`registered_backends`] enumerates ready-made context factories for
//! every in-tree backend so differential tests (and every future
//! backend) inherit the cross-validation argument for free.

use crate::error::{BrookError, Result};
use crate::stream::StreamDesc;
use brook_lang::{CheckedProgram, ReduceOp};
use gles2_sim::{DeviceProfile, DrawMode, Value};
use perf_model::GpuRun;

/// How one kernel parameter is bound for a dispatch, after the context
/// has validated argument/parameter agreement. Stream bindings carry the
/// backend-local stream index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundArg {
    /// Elementwise input stream (`float a<>`).
    Elem(usize),
    /// Random-access gather stream (`float t[]` / `float t[][]`).
    Gather(usize),
    /// Scalar uniform.
    Scalar(Value),
    /// Output stream (`out float o<>`).
    Out(usize),
}

/// A fully classified, backend-independent kernel launch: the contract
/// between [`crate::BrookContext::run`] and [`BackendExecutor::dispatch`].
///
/// Invariants the context guarantees before dispatch:
///
/// * `args` pairs every kernel parameter (declaration order) with a
///   matching binding;
/// * `outputs` is non-empty and lists the `Out` bindings in order;
/// * no stream index appears both as an input (`Elem`/`Gather`) and as
///   an output — Brook kernels never read their own output.
pub struct KernelLaunch<'a> {
    /// The type-checked translation unit owning the kernel.
    pub checked: &'a CheckedProgram,
    /// The lowered (and optimized, re-certified) BrookIR of the unit —
    /// the form backends execute. Compiled modules carry IR for every
    /// kernel; sources whose kernels cannot lower fail to compile.
    pub ir: &'a brook_ir::IrProgram,
    /// Lane-vectorization plans for the unit, decided once at compile
    /// time (`brook_ir::lanes::plan_with`). CPU backends execute kernels
    /// present here through the lane engine in element blocks; rejected
    /// kernels run the scalar IR interpreter.
    pub lanes: &'a brook_ir::lanes::LaneProgram,
    /// Tier-2 closure-chain plans for the unit, compiled once at
    /// compile time (`brook_ir::tier::compile_simd`) from the lane plans.
    /// CPU backends execute kernels present here through the
    /// closure-threaded engine; rejected kernels keep the lane engine
    /// (or the scalar interpreter).
    pub tiers: &'a brook_ir::tier::TierProgram,
    /// Module identity, stable across launches (backends key compiled
    /// artifact caches on it).
    pub module_id: u64,
    /// Kernel name.
    pub kernel: &'a str,
    /// `(parameter name, binding)` in declaration order.
    pub args: Vec<(String, BoundArg)>,
    /// `(parameter name, stream index)` of every output parameter.
    pub outputs: Vec<(String, usize)>,
}

impl KernelLaunch<'_> {
    /// The scalar (uniform) bindings of this launch.
    pub fn scalar_args(&self) -> Vec<(String, Value)> {
        self.args
            .iter()
            .filter_map(|(n, b)| match b {
                BoundArg::Scalar(v) => Some((n.clone(), *v)),
                _ => None,
            })
            .collect()
    }

    /// Every stream binding (inputs, gathers and outputs) as
    /// `(parameter name, stream index)`.
    pub fn stream_args(&self) -> Vec<(String, Option<usize>)> {
        self.args
            .iter()
            .filter_map(|(n, b)| match b {
                BoundArg::Elem(i) | BoundArg::Gather(i) | BoundArg::Out(i) => Some((n.clone(), Some(*i))),
                BoundArg::Scalar(_) => None,
            })
            .collect()
    }
}

/// The BrookIR of `kernel`. Compiled modules hold IR for every kernel,
/// so only a hand-built module can miss one.
pub(crate) fn ir_kernel<'a>(ir: &'a brook_ir::IrProgram, kernel: &str) -> Result<&'a brook_ir::IrKernel> {
    ir.kernel(kernel)
        .ok_or_else(|| BrookError::Usage(format!("kernel `{kernel}` has no BrookIR")))
}

/// An execution substrate for certified Brook Auto programs.
///
/// The contract every implementation must honour, because the
/// differential-test layer asserts it across all registered backends:
///
/// * streams are dense `f32` buffers addressed by the index returned
///   from [`create_stream`](Self::create_stream); `write` then `read`
///   roundtrips values bit-exactly (modulo the device's storage format
///   canonicalization);
/// * [`dispatch`](Self::dispatch) computes every output element from the
///   same inputs independently — the Brook streaming model — and agrees
///   with the CPU reference interpreter within the storage format's
///   tolerance;
/// * [`reduce`](Self::reduce) folds a stream to one scalar with the
///   kernel's reduction semantics.
///
/// The telemetry hooks ([`counters`](Self::counters),
/// [`memory_used`](Self::memory_used), …) have no-op defaults so pure
/// CPU backends only implement the execution core.
pub trait BackendExecutor {
    /// Stable backend identifier (used in test reports and diagnostics).
    fn name(&self) -> &'static str;

    /// Allocates a stream, returning its backend-local index.
    ///
    /// # Errors
    /// Shape violations and device capacity limits.
    fn create_stream(&mut self, desc: StreamDesc) -> Result<usize>;

    /// Static description of a stream created earlier.
    fn stream_desc(&self, index: usize) -> &StreamDesc;

    /// Copies host values into a stream (`streamRead`).
    ///
    /// # Errors
    /// Size mismatches and device transfer failures.
    fn write_stream(&mut self, index: usize, values: &[f32]) -> Result<()>;

    /// Copies a stream back to the host (`streamWrite`).
    ///
    /// # Errors
    /// Device transfer failures.
    fn read_stream(&mut self, index: usize) -> Result<Vec<f32>>;

    /// Executes one kernel launch over the full output domain.
    ///
    /// # Errors
    /// Code generation, device and evaluation failures.
    fn dispatch(&mut self, launch: &KernelLaunch<'_>) -> Result<()>;

    /// Folds `input` to a scalar with a reduce kernel. `ir` is the
    /// module's lowered program (host backends fold its flat form; the
    /// device ladder only needs the canonical `op`). `simd` is the
    /// module's vectorized-reduce plan when the planner admitted the
    /// kernel — CPU backends may fold through it (bit-exact with the
    /// serial fold by the admission proof); other backends ignore it.
    ///
    /// # Errors
    /// Evaluation and device failures.
    fn reduce(
        &mut self,
        checked: &CheckedProgram,
        ir: &brook_ir::IrProgram,
        kernel: &str,
        op: ReduceOp,
        simd: Option<&brook_ir::simd::ReduceKernel>,
        input: usize,
    ) -> Result<f32>;

    /// Switches between full execution and sampled cost estimation
    /// (meaningful for device-model backends; no-op elsewhere).
    fn set_dispatch_mode(&mut self, _mode: DrawMode) {}

    /// Installs (or clears) a device memory budget in bytes.
    fn set_memory_budget(&mut self, _bytes: Option<usize>) {}

    /// Marks the device lost (or restores it) — the hook deterministic
    /// fault injection drives. Backends with a real device model fail
    /// every subsequent transfer and draw until restored; pure host
    /// backends have no device to lose and ignore it (the recovery
    /// ladder synthesizes their loss errors before dispatch instead).
    fn set_device_lost(&mut self, _lost: bool) {}

    /// Execution counters for the performance model (zeros for backends
    /// without a device cost model).
    fn counters(&self) -> GpuRun {
        GpuRun::default()
    }

    /// Resets [`counters`](Self::counters) (e.g. to exclude warm-up from
    /// a measurement window).
    fn reset_counters(&mut self) {}

    /// Bytes of device memory currently allocated (0 for host backends).
    fn memory_used(&self) -> usize {
        0
    }

    /// High-water mark of device memory over the backend's lifetime (0
    /// for host backends) — the figure a static memory plan (BA002)
    /// must upper-bound.
    fn memory_peak(&self) -> usize {
        0
    }
}

/// A named factory for a ready-to-use [`crate::BrookContext`] — the unit
/// the differential-test matrix enumerates.
#[derive(Clone, Copy)]
pub struct BackendSpec {
    /// Backend identifier, matching [`BackendExecutor::name`].
    pub name: &'static str,
    /// Builds a fresh context on this backend.
    pub make: fn() -> crate::BrookContext,
}

impl std::fmt::Debug for BackendSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendSpec").field("name", &self.name).finish()
    }
}

/// Every in-tree backend, in reference-first order: the serial CPU
/// interpreter (the semantics oracle), the data-parallel CPU backend,
/// and the GL ES 2.0 simulator in both storage modes (native float on
/// the desktop-class profile, packed RGBA8 on the embedded target).
pub fn registered_backends() -> Vec<BackendSpec> {
    vec![
        BackendSpec {
            name: "cpu",
            make: crate::BrookContext::cpu,
        },
        BackendSpec {
            name: "cpu-parallel",
            make: crate::BrookContext::cpu_parallel,
        },
        BackendSpec {
            name: "gles2-native",
            make: || crate::BrookContext::gles2(DeviceProfile::radeon_hd3400()),
        },
        BackendSpec {
            name: "gles2-packed",
            make: || crate::BrookContext::gles2(DeviceProfile::videocore_iv()),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Arg;

    #[test]
    fn registry_names_are_unique_and_complete() {
        let names: Vec<_> = registered_backends().iter().map(|b| b.name).collect();
        assert_eq!(names, vec!["cpu", "cpu-parallel", "gles2-native", "gles2-packed"]);
    }

    #[test]
    fn registry_factories_report_their_own_name() {
        for spec in registered_backends() {
            let ctx = (spec.make)();
            assert_eq!(ctx.backend_name(), spec.name);
        }
    }

    #[test]
    fn every_registered_backend_runs_saxpy() {
        for spec in registered_backends() {
            let mut ctx = (spec.make)();
            let module = ctx
                .compile("kernel void saxpy(float x<>, float y<>, float a, out float r<>) { r = a * x + y; }")
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            let x = ctx.stream(&[4]).expect("x");
            let y = ctx.stream(&[4]).expect("y");
            let r = ctx.stream(&[4]).expect("r");
            ctx.write(&x, &[1.0, 2.0, 3.0, 4.0]).expect("write x");
            ctx.write(&y, &[10.0, 10.0, 10.0, 10.0]).expect("write y");
            ctx.run(
                &module,
                "saxpy",
                &[Arg::Stream(&x), Arg::Stream(&y), Arg::Float(2.0), Arg::Stream(&r)],
            )
            .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(
                ctx.read(&r).expect("read"),
                vec![12.0, 14.0, 16.0, 18.0],
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn launch_accessors_partition_bindings() {
        let checked = brook_lang::parse_and_check(
            "kernel void f(float a<>, float t[], float k, out float o<>) { o = a + t[0] + k; }",
        )
        .expect("check");
        let ir = {
            let (p, errs) = brook_ir::lower::lower_program(&checked);
            assert!(errs.is_empty(), "{errs:?}");
            p
        };
        let lanes = brook_ir::lanes::LaneProgram::plan_program_with(&ir, &[]);
        let tiers =
            brook_ir::tier::TierProgram::compile_program_simd(&ir, &lanes, &[], brook_ir::simd::auto());
        let launch = KernelLaunch {
            checked: &checked,
            ir: &ir,
            lanes: &lanes,
            tiers: &tiers,
            module_id: 1,
            kernel: "f",
            args: vec![
                ("a".into(), BoundArg::Elem(0)),
                ("t".into(), BoundArg::Gather(1)),
                ("k".into(), BoundArg::Scalar(Value::Float(2.0))),
                ("o".into(), BoundArg::Out(2)),
            ],
            outputs: vec![("o".into(), 2)],
        };
        assert_eq!(launch.scalar_args(), vec![("k".to_string(), Value::Float(2.0))]);
        let streams = launch.stream_args();
        assert_eq!(streams.len(), 3);
        assert!(streams.iter().all(|(_, i)| i.is_some()));
    }
}
