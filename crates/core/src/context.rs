//! `BrookContext` — the user-facing Brook Auto runtime.
//!
//! The context owns compilation and certification and drives execution
//! through the [`BackendExecutor`] trait: it validates and classifies
//! every call into a backend-independent [`KernelLaunch`], then hands it
//! to whichever substrate the context was built on. There is no
//! per-backend dispatch here — adding a backend never touches this file.

use crate::backend::{BackendExecutor, BoundArg, KernelLaunch};
use crate::cpu::CpuBackend;
use crate::cpu_parallel::ParallelCpuBackend;
use crate::error::{BrookError, Result};
use crate::gpu::GpuState;
use crate::resilience::{ResiliencePolicy, ResilienceReport, ResilienceState, Work};
use crate::stream::{Stream, StreamDesc};
use brook_cert::{certify, CertConfig, ComplianceReport};
use brook_inject::{CancelToken, FaultPlan, LaunchResilience, ResilienceSummary};
use brook_ir::IrProgram;
use brook_lang::ast::{KernelDef, Param, ParamKind};
use brook_lang::CheckedProgram;
use gles2_sim::{DeviceProfile, DrawMode, Value};
use perf_model::GpuRun;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_CONTEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_MODULE_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh identifier from the same namespace contexts draw theirs from.
/// Graph recorders use it to tag virtual streams so a handle can never
/// be mistaken for one owned by any live context.
pub(crate) fn fresh_owner_id() -> u64 {
    NEXT_CONTEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// A compiled, certified Brook Auto translation unit: a
/// [`ModuleArtifact`] adopted by one context.
#[derive(Debug, Clone)]
pub struct BrookModule {
    /// Shared so cloning a module (the graph recorder stores one clone
    /// per recorded launch) never deep-copies the program or its IR.
    pub(crate) front: Arc<Front>,
    pub(crate) plan: Plan,
    /// The certification data produced at compile time (paper §4).
    pub report: ComplianceReport,
    /// Globally unique module identity (backends key compiled-artifact
    /// caches on it, so two contexts can never alias cache entries).
    pub(crate) id: u64,
    /// The context that compiled (and certified) this module. `run` and
    /// `reduce` reject modules from any other context: certification
    /// limits are per-context, so letting a module compiled under a lax
    /// [`CertConfig`] execute on a stricter context would bypass the
    /// gate.
    pub(crate) context_id: u64,
}

impl BrookModule {
    /// Kernel names defined by the module.
    pub fn kernels(&self) -> Vec<String> {
        self.front.kernels()
    }
}

/// A context-neutral compiled translation unit: everything
/// [`BrookContext::compile`] produces *except* the identity stamps. The
/// unit a compiled-module cache shares across tenants — cheap to clone
/// (the heavy pieces are `Arc`-shared) and [`Send`]/[`Sync`], so one
/// compilation can serve many contexts on many threads: a shared front
/// plus its plan for the compiling context's engine.
///
/// An artifact is inert until a context adopts it
/// ([`BrookContext::adopt_artifact`]), which re-stamps it with a fresh
/// module id and the adopting context's identity — so the foreign-module
/// rejection of `run`/`reduce` keeps holding on cache hits: the cache
/// hands out *artifacts*, never another tenant's stamped module.
#[derive(Debug, Clone)]
pub struct ModuleArtifact {
    front: Arc<Front>,
    plan: Plan,
    /// The front's report plus the plan's records.
    report: ComplianceReport,
}

impl ModuleArtifact {
    /// Kernel names defined by the artifact.
    pub fn kernels(&self) -> Vec<String> {
        self.front.kernels()
    }

    /// The certification data package produced at compile time — the
    /// static artifacts (instruction estimates, loop bounds, pass
    /// counts) an admission controller budgets against *before*
    /// adopting the artifact into a context.
    pub fn report(&self) -> &ComplianceReport {
        &self.report
    }

    /// Digest of the [`CertConfig`] the artifact was certified under —
    /// a component of any shared-cache key.
    pub fn cert_fingerprint(&self) -> u64 {
        self.front.key.cert_fingerprint
    }
}

/// The front half of a compile: parse, certify, lower, IR re-gate, the
/// pass pipeline and abstract interpretation. None of it depends on the
/// engine, so every plan of one source shares one front.
#[derive(Debug, Clone)]
pub(crate) struct Front {
    key: FrontKey,
    pub(crate) checked: Arc<CheckedProgram>,
    /// The lowered, optimized and re-certified BrookIR — the form every
    /// backend executes. Holds every kernel of the module: sources with
    /// a kernel that cannot lower fail to compile.
    pub(crate) ir: Arc<IrProgram>,
    /// The analyzer's per-kernel facts the planners consult.
    facts: Vec<brook_ir::KernelFacts>,
    /// IR-verification verdicts, decided once where the front is built
    /// ([`verify_module_ir`]); launches report a stored failure.
    pub(crate) ir_rejects: IrRejects,
    /// The report up to abstract interpretation: no plan records.
    pub(crate) report: ComplianceReport,
}

impl Front {
    fn kernels(&self) -> Vec<String> {
        self.checked.kernels.iter().map(|k| k.name.clone()).collect()
    }
}

/// What a [`Front`] depends on besides the source: adoption refuses a
/// front built under other settings, so (say) a front compiled with
/// certification off never reaches an enforcing context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrontKey {
    cert_fingerprint: u64,
    enforce_certification: bool,
    ir_optimize: bool,
    clamp_elision: bool,
}

/// The engine a plan targets ([`BrookContext::engine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Engine {
    /// No plans: the scalar interpreter (or AST walker) runs everything.
    Scalar,
    /// Lane and reduce plans at the SIMD level; Tier-2 off.
    Lanes(brook_ir::simd::SimdLevel),
    /// Lane plans, Tier-2 closure chains and reduce plans.
    Tier(brook_ir::simd::SimdLevel),
}

/// The plan half of a compile ([`plan`]): one engine's programs. CPU
/// backends run an admitted kernel on them, a rejected one on the
/// engine below. Shared: built once per plan, never per clone.
#[derive(Debug, Clone)]
pub(crate) struct Plan {
    engine: Engine,
    /// Lane-vectorization plans (`lane_plans`).
    pub(crate) lanes: Arc<brook_ir::lanes::LaneProgram>,
    /// Tier-2 closure chains built on the lane plans (`tier_plans`).
    pub(crate) tiers: Arc<brook_ir::tier::TierProgram>,
    /// Vectorized-reduce plans (`simd_reduces`).
    pub(crate) simds: Arc<brook_ir::simd::ReduceProgram>,
}

/// A positional kernel argument.
#[derive(Debug, Clone, Copy)]
pub enum Arg<'a> {
    /// A stream (input, gather or output, matched by parameter kind).
    Stream(&'a Stream),
    /// Scalar `float`.
    Float(f32),
    /// Scalar `int`.
    Int(i32),
    /// `float2` constant.
    Float2([f32; 2]),
    /// `float3` constant.
    Float3([f32; 3]),
    /// `float4` constant.
    Float4([f32; 4]),
}

/// The Brook Auto runtime context: owns streams, compiles kernels,
/// dispatches them on the selected backend.
pub struct BrookContext {
    pub(crate) backend: Box<dyn BackendExecutor + Send>,
    pub(crate) context_id: u64,
    cert_config: CertConfig,
    /// When false, `compile` accepts non-compliant programs (used for
    /// negative tests and for measuring what certification would reject)
    /// as long as every kernel still lowers to BrookIR.
    pub enforce_certification: bool,
    /// When false, `compile` skips the BrookIR optimization pipeline
    /// (the fuzzer's `cpu-noopt` rung and the AST oracle; execution
    /// still runs the flat IR).
    pub ir_optimize: bool,
    /// When false, the plan is empty, so the CPU backends execute the
    /// scalar IR interpreter for every kernel (the fuzzer's `cpu-scalar`
    /// rung, the ladder's interpreter rung and the AST oracle). Like
    /// `tier_execution` and `simd_mode` it changes only the plan.
    pub lane_execution: bool,
    /// When false, the plan skips Tier-2 closure-chain compilation, so
    /// admitted kernels execute on the lane engine instead (the
    /// fuzzer's `cpu-lanes` rung and the ladder's lane rung). Has no
    /// effect when `lane_execution` is false: Tier-2 builds on the lane
    /// plan.
    pub tier_execution: bool,
    /// When false, `compile` skips attaching the abstract interpreter's
    /// proven gather-index ranges to the IR, so every backend keeps the
    /// per-dimension clamp on every gather (used by the elision
    /// differential campaigns as the always-clamped baseline). Analysis
    /// itself still runs: provable-fault rejection and refined
    /// admission estimates don't depend on this toggle.
    pub clamp_elision: bool,
    /// Which explicit-SIMD kernels the tier closures and the
    /// vectorized reduce fold dispatch to. [`SimdMode::Auto`] follows
    /// the `BROOK_SIMD` environment override and runtime CPU
    /// detection; forcing a level is the differential-campaign /
    /// non-AVX2-CI control. Every level is bit-exact with the scalar
    /// bodies by construction, so this can only change speed, never
    /// results.
    pub simd_mode: brook_ir::simd::SimdMode,
    /// Fault-injection / recovery state: absent (one pointer-sized
    /// `Option` check per dispatch — the measured hook cost) until a
    /// [`FaultPlan`] or [`ResiliencePolicy`] is installed.
    pub(crate) resilience: Option<Box<ResilienceState>>,
    /// Streams created through this context, in backend-index order
    /// (backends allocate densely and never free) — lets a late
    /// [`set_resilience`](Self::set_resilience) snapshot shadows for
    /// streams that predate the policy.
    streams_created: usize,
}

impl BrookContext {
    /// A context executing kernels on the given backend, enforcing the
    /// given certification limits — the extension point for backends
    /// implemented outside this crate.
    pub fn with_backend(backend: Box<dyn BackendExecutor + Send>, cert_config: CertConfig) -> Self {
        BrookContext {
            backend,
            context_id: NEXT_CONTEXT_ID.fetch_add(1, Ordering::Relaxed),
            cert_config,
            enforce_certification: true,
            ir_optimize: true,
            lane_execution: true,
            tier_execution: true,
            clamp_elision: true,
            simd_mode: brook_ir::simd::SimdMode::Auto,
            resilience: None,
            streams_created: 0,
        }
    }

    /// A context executing kernels through the legacy AST tree walker —
    /// the differential oracle the IR interpreter is validated against.
    /// Not part of [`crate::backend::registered_backends`]; the fuzz
    /// campaigns and benches construct it explicitly. It neither
    /// optimizes nor plans: the walker runs no engine, so its report
    /// records no engine admission.
    pub fn cpu_ast_oracle() -> Self {
        let mut ctx = Self::with_backend(Box::new(CpuBackend::ast_walker()), CertConfig::default());
        ctx.ir_optimize = false;
        ctx.lane_execution = false;
        ctx
    }

    /// A context executing kernels on the serial interpreted CPU backend
    /// (the reference semantics).
    pub fn cpu() -> Self {
        Self::with_backend(Box::new(CpuBackend::new()), CertConfig::default())
    }

    /// A context executing kernels on the data-parallel CPU backend: the
    /// same element semantics as [`BrookContext::cpu`], with the output
    /// domain split into pieces that the calling thread and a
    /// process-wide helper pool claim. Results are bit-identical to the
    /// serial backend.
    pub fn cpu_parallel() -> Self {
        Self::with_backend(Box::new(ParallelCpuBackend::new()), CertConfig::default())
    }

    /// A context executing kernels on the simulated OpenGL ES 2.0 GPU.
    ///
    /// Storage mode follows the device: profiles without float textures
    /// use the packed RGBA8 path (paper §5.4).
    pub fn gles2(profile: DeviceProfile) -> Self {
        let cert_config = CertConfig {
            max_inputs: profile.texture_units,
            ..CertConfig::default()
        };
        Self::with_backend(Box::new(GpuState::new(profile)), cert_config)
    }

    /// The name of the backend this context executes on.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The certification limits this context enforces at compile time.
    pub fn cert_config(&self) -> &CertConfig {
        &self.cert_config
    }

    /// Compiles and certifies Brook source.
    ///
    /// # Errors
    /// Front-end diagnostics, or [`BrookError::Certification`] carrying
    /// the full compliance report when a rule is violated and enforcement
    /// is on — or, whatever the enforcement, when a violation (such as
    /// BA004 recursion) leaves a kernel unable to lower to BrookIR.
    pub fn compile(&mut self, source: &str) -> Result<BrookModule> {
        let artifact = self.compile_artifact(source)?;
        self.adopt_artifact(&artifact)
    }

    /// Compiles and certifies Brook source into a context-neutral
    /// [`ModuleArtifact`] — the full `compile` pipeline minus the
    /// identity stamps. Intended for compiled-module caches: compile
    /// once, [`adopt_artifact`](Self::adopt_artifact) per tenant.
    ///
    /// # Errors
    /// Exactly those of [`compile`](Self::compile).
    pub fn compile_artifact(&mut self, source: &str) -> Result<ModuleArtifact> {
        Ok(plan(Arc::new(self.front(source)?), self.engine()))
    }

    /// The front half of [`compile_artifact`](Self::compile_artifact):
    /// everything up to and including abstract interpretation.
    fn front(&self, source: &str) -> Result<Front> {
        let checked = brook_lang::parse_and_check(source)?;
        let report = certify(&checked, &self.cert_config);
        if self.enforce_certification && !report.is_compliant() {
            return Err(BrookError::Certification(Box::new(report)));
        }
        // Lower to BrookIR — the form every backend executes. Lowering
        // is mandatory: a kernel that cannot lower (a recursive or
        // over-deep helper chain, which only an unenforced gate lets
        // through) is rejected with the report that names the violation.
        // A certified program always lowers, so a failure there is a
        // toolchain bug surfaced loudly.
        let (ir, lower_errors) = brook_ir::lower::lower_program(&checked);
        if let Some(e) = lower_errors.first() {
            if !report.is_compliant() {
                return Err(BrookError::Certification(Box::new(report)));
            }
            return Err(BrookError::Usage(format!("internal lowering failure: {e}")));
        }
        // Lower → re-gate: the IR-level re-check must agree that the
        // lowered program is still certifiable. Its verdicts are the pass
        // gate's baseline, so the lowered IR is checked once.
        let (checks, ok) = brook_cert::ir_check::check_program(&ir, &self.cert_config);
        if self.enforce_certification && !ok {
            let first = checks
                .iter()
                .flat_map(|c| c.findings.iter())
                .find(|f| f.severity == brook_lang::diag::Severity::Error)
                .map(|f| format!("[{}] {} (source {})", f.rule.code(), f.message, f.span))
                .unwrap_or_else(|| "unspecified".into());
            return Err(BrookError::Usage(format!(
                "internal: lowering broke certifiability: {first}"
            )));
        }
        let baseline: Vec<bool> = checks.iter().map(|c| c.is_compliant()).collect();
        // Optimize and analyze. Abstract interpretation contributes
        // provable-fault findings (BA013/BA014) and the refined
        // admission estimate to each kernel.
        let mut front = self.front_from_ir(Arc::new(checked), ir, report, &baseline);
        let report = &mut front.report;
        for ka in &report.analysis.kernels {
            let Some(kr) = report.kernels.iter_mut().find(|r| r.kernel == ka.kernel) else {
                continue;
            };
            kr.findings.extend(ka.faults.iter().cloned());
            // Refined admission estimate: the reachability-pruned walk
            // over the optimized IR, capped by the AST-level figure
            // (both over-approximate the same worst case; bill the
            // tighter one).
            kr.refined_estimate = match (ka.pruned_estimate, kr.instruction_estimate) {
                (Some(p), Some(a)) => Some(p.min(a)),
                (p, a) => p.or(a),
            };
            debug_assert!(
                kr.refined_estimate <= kr.instruction_estimate || kr.instruction_estimate.is_none(),
                "refined estimate above the AST estimate — analyzer bug"
            );
        }
        if self.enforce_certification && !report.is_compliant() {
            return Err(BrookError::Certification(Box::new(front.report)));
        }
        Ok(front)
    }

    /// The post-lowering front [`compile_artifact`](Self::compile_artifact)
    /// and graph fusion share: the cert-gated pass pipeline, then
    /// abstract interpretation, recorded in `report`. `baseline` holds
    /// each kernel's IR-level verdict from the caller's re-check of
    /// `ir` (the pass gate's baseline).
    pub(crate) fn front_from_ir(
        &self,
        checked: Arc<CheckedProgram>,
        mut ir: IrProgram,
        mut report: ComplianceReport,
        baseline: &[bool],
    ) -> Front {
        // Optimize under the cert rollback gate, recording provenance.
        if self.ir_optimize {
            report.passes = brook_cert::ir_check::optimize_program_from(
                &mut ir,
                baseline,
                &self.cert_config,
                &brook_ir::passes::default_passes(),
            );
        }
        // Abstract interpretation over the optimized IR: value-range
        // facts, provable-fault findings, gather proofs for clamp
        // elision, reachability for the planners, and the refined
        // admission estimate. Runs strictly after the pass pipeline so
        // passes never see (or have to preserve) proofs.
        let (analysis, facts) = brook_cert::absint::analyze_and_annotate_program(&mut ir, self.clamp_elision);
        report.analysis = analysis;
        Front {
            key: self.front_key(),
            checked,
            ir_rejects: verify_module_ir(&ir),
            ir: Arc::new(ir),
            facts,
            report,
        }
    }

    /// The engine this context plans for, from `lane_execution`,
    /// `tier_execution` and the resolved `simd_mode`.
    pub(crate) fn engine(&self) -> Engine {
        match (self.lane_execution, self.tier_execution) {
            (false, _) => Engine::Scalar,
            (true, false) => Engine::Lanes(self.simd_mode.resolve()),
            (true, true) => Engine::Tier(self.simd_mode.resolve()),
        }
    }

    /// The settings a front depends on, which adoption must match.
    fn front_key(&self) -> FrontKey {
        FrontKey {
            cert_fingerprint: self.cert_config.fingerprint(),
            enforce_certification: self.enforce_certification,
            ir_optimize: self.ir_optimize,
            clamp_elision: self.clamp_elision,
        }
    }

    /// Stamps a [`ModuleArtifact`] into a [`BrookModule`] owned by this
    /// context: a fresh globally unique module id (backend program
    /// caches can never alias entries across adoptions) plus this
    /// context's identity (so `run`/`reduce` foreign-module rejection
    /// applies to the adopted module exactly as to a locally compiled
    /// one). An artifact planned for another engine is re-planned for
    /// this context's from its shared front, as `compile` would plan
    /// it.
    ///
    /// # Errors
    /// `Usage` when the artifact's front was built under a different
    /// [`CertConfig`], `enforce_certification`, `ir_optimize` or
    /// `clamp_elision` than this context uses — adopting it would
    /// bypass this context's gate or change its IR. Engine settings
    /// (`lane_execution`, `tier_execution`, `simd_mode`) never refuse.
    pub fn adopt_artifact(&mut self, artifact: &ModuleArtifact) -> Result<BrookModule> {
        if artifact.front.key != self.front_key() {
            return Err(BrookError::Usage(
                "artifact was compiled under a different certification config, enforcement, \
                 optimization or clamp elision than this context uses"
                    .into(),
            ));
        }
        let engine = self.engine();
        Ok(self.stamp(if artifact.plan.engine == engine {
            artifact.clone()
        } else {
            plan(Arc::clone(&artifact.front), engine)
        }))
    }

    /// The one place a [`BrookModule`] is built: `artifact` under a
    /// fresh module id and this context's identity.
    pub(crate) fn stamp(&self, artifact: ModuleArtifact) -> BrookModule {
        BrookModule {
            front: artifact.front,
            plan: artifact.plan,
            report: artifact.report,
            id: NEXT_MODULE_ID.fetch_add(1, Ordering::Relaxed),
            context_id: self.context_id,
        }
    }

    /// Renders the module's BrookIR in its canonical textual form — the
    /// debug surface golden IR snapshots pin.
    ///
    /// # Errors
    /// Foreign modules.
    pub fn emit_ir(&self, module: &BrookModule) -> Result<String> {
        self.check_module(module)?;
        Ok(brook_ir::pretty::print_program(&module.front.ir))
    }

    /// Builds a module around hand-built IR, bypassing lowering — for
    /// negative tests that must prove every backend path rejects
    /// malformed IR. The `source` still goes through the front-end so
    /// the module carries a valid checked program.
    #[doc(hidden)]
    pub fn module_with_raw_ir(&mut self, source: &str, ir: IrProgram) -> Result<BrookModule> {
        let checked = brook_lang::parse_and_check(source)?;
        let report = certify(&checked, &self.cert_config);
        let front = Front {
            key: self.front_key(),
            checked: Arc::new(checked),
            ir_rejects: verify_module_ir(&ir),
            ir: Arc::new(ir),
            facts: Vec::new(),
            report,
        };
        // Hand-built IR is never planned: it executes through the
        // scalar interpreter behind the launch-boundary verdict.
        Ok(self.stamp(plan(Arc::new(front), Engine::Scalar)))
    }

    /// Opens a deferred recording scope: kernel launches recorded through
    /// the returned [`crate::graph::BrookGraph`] are captured as a
    /// dataflow graph, optimized (producer→consumer chains fused into
    /// single passes, intermediates elided) and executed on this
    /// context's backend by `execute()`.
    pub fn graph(&mut self) -> crate::graph::BrookGraph<'_> {
        crate::graph::BrookGraph::new(self)
    }

    /// Creates a statically-sized scalar `float` stream.
    ///
    /// # Errors
    /// Shape/device violations (dimension count, texture limits, VRAM
    /// budget).
    pub fn stream(&mut self, shape: &[usize]) -> Result<Stream> {
        self.stream_with_width(shape, 1)
    }

    /// Creates a stream of `floatN` elements (`width` in 1..=4).
    ///
    /// # Errors
    /// As [`BrookContext::stream`]; additionally, packed-storage devices
    /// reject `width > 1`.
    pub fn stream_with_width(&mut self, shape: &[usize], width: u8) -> Result<Stream> {
        crate::stream::validate_stream_params(shape, width).map_err(BrookError::Usage)?;
        let desc = StreamDesc {
            shape: shape.to_vec(),
            width,
        };
        let index = self.backend.create_stream(desc.clone())?;
        self.streams_created += 1;
        if let Some(state) = self.resilience.as_mut() {
            state.note_stream(index, desc);
        }
        Ok(Stream {
            index,
            context_id: self.context_id,
        })
    }

    fn check_stream(&self, s: &Stream) -> Result<()> {
        if s.context_id != self.context_id {
            return Err(BrookError::Usage("stream belongs to a different context".into()));
        }
        Ok(())
    }

    /// A module is only valid on the context that compiled it: the
    /// certification gate ran with *this* context's limits, and backends
    /// key compiled-artifact caches on module identity.
    pub(crate) fn check_module(&self, module: &BrookModule) -> Result<()> {
        if module.context_id != self.context_id {
            return Err(BrookError::Usage(
                "module was compiled by a different context; certification limits are \
                 per-context, so modules must be recompiled on the context that runs them"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Stream element count.
    ///
    /// # Errors
    /// Foreign streams — a handle from another context indexes a
    /// different backend's stream table, so answering for it would
    /// return an unrelated stream's length (or panic out of bounds).
    pub fn stream_len(&self, s: &Stream) -> Result<usize> {
        self.check_stream(s)?;
        Ok(self.backend.stream_desc(s.index).len())
    }

    /// Copies values into a stream (`streamRead` in Brook terms).
    ///
    /// # Errors
    /// Size mismatches and foreign streams.
    pub fn write(&mut self, s: &Stream, values: &[f32]) -> Result<()> {
        self.check_stream(s)?;
        self.backend.write_stream(s.index, values)?;
        if let Some(state) = self.resilience.as_mut() {
            state.note_write(s.index, values);
        }
        Ok(())
    }

    /// Copies a stream back to the host (`streamWrite` in Brook terms).
    ///
    /// # Errors
    /// Foreign streams; backend transfer failures.
    pub fn read(&mut self, s: &Stream) -> Result<Vec<f32>> {
        self.check_stream(s)?;
        self.backend.read_stream(s.index)
    }

    /// Runs a kernel with positional arguments (one per parameter).
    /// Multi-output kernels execute one GPU pass per output — the
    /// splitting of paper §6.
    ///
    /// # Errors
    /// Argument/parameter mismatches, certification-mode violations and
    /// backend failures.
    pub fn run(&mut self, module: &BrookModule, kernel: &str, args: &[Arg<'_>]) -> Result<()> {
        self.check_module(module)?;
        let kdef = module
            .front
            .checked
            .program
            .kernel(kernel)
            .ok_or_else(|| BrookError::Usage(format!("unknown kernel `{kernel}`")))?;
        let (handle_args, outputs) = classify_call(kdef, kernel, args, &mut |s| {
            self.check_stream(s)?;
            Ok(self.backend.stream_desc(s.index))
        })?;
        let bound_args = handle_args.into_iter().map(|(n, h)| (n, h.to_bound())).collect();
        // Every backend path executes through the IR: report its
        // build-time verdict at the launch boundary so malformed IR
        // (hand-built, corrupted, or a pass-pipeline escape) is
        // rejected uniformly on all substrates.
        report_ir_verdict(module, kernel)?;
        let launch = KernelLaunch {
            checked: &module.front.checked,
            ir: &module.front.ir,
            lanes: &module.plan.lanes,
            tiers: &module.plan.tiers,
            module_id: module.id,
            kernel,
            args: bound_args,
            outputs: outputs.into_iter().map(|(n, s)| (n, s.index)).collect(),
        };
        // The fault-injection / recovery hook: one `Option` check when
        // disarmed; the full ladder (deadlines, retries, failover,
        // redundant execution) when armed.
        match self.resilience.as_mut() {
            Some(state) => {
                crate::resilience::execute_resilient(&mut self.backend, state, kernel, Work::Launch(&launch))
                    .map(|_| ())
            }
            None => self.backend.dispatch(&launch),
        }
    }

    /// Applies a reduce kernel to a stream, producing a scalar.
    ///
    /// On the GPU this is the multi-pass ping-pong ladder of paper §5.5;
    /// on the CPU it folds the kernel body serially.
    ///
    /// # Errors
    /// Unknown/non-reduce kernels and backend failures.
    pub fn reduce(&mut self, module: &BrookModule, kernel: &str, input: &Stream) -> Result<f32> {
        self.check_module(module)?;
        self.check_stream(input)?;
        let summary = module
            .front
            .checked
            .summary(kernel)
            .ok_or_else(|| BrookError::Usage(format!("unknown kernel `{kernel}`")))?;
        if !summary.is_reduce {
            return Err(BrookError::Usage(format!(
                "kernel `{kernel}` is not a reduce kernel"
            )));
        }
        let op = summary
            .reduce_op
            .ok_or_else(|| BrookError::Usage("reduce kernel without a detected operation".into()))?;
        // The host ladder folds `width` lanes per element while the GL
        // ladder reduces one texel channel per step; a width mismatch
        // between the kernel's input parameter and the bound stream
        // would make the backends fold different lane counts — reject
        // it as the type error it is.
        if let Some(p) = module
            .front
            .checked
            .program
            .kernel(kernel)
            .and_then(|k| k.params.iter().find(|p| p.kind == ParamKind::Stream))
        {
            let width = self.backend.stream_desc(input.index).width;
            if width != p.ty.width {
                return Err(BrookError::Usage(format!(
                    "reduce parameter `{}` has element type {} but the bound stream \
                     holds float{} elements",
                    p.name,
                    p.ty,
                    if width == 1 {
                        String::new()
                    } else {
                        width.to_string()
                    }
                )));
            }
        }
        report_ir_verdict(module, kernel)?;
        match self.resilience.as_mut() {
            Some(state) => crate::resilience::execute_resilient(
                &mut self.backend,
                state,
                kernel,
                Work::Reduce {
                    checked: &module.front.checked,
                    ir: &module.front.ir,
                    kernel,
                    op,
                    simd: module.plan.simds.kernel(kernel),
                    input: input.index,
                },
            )
            .map(|v| v.expect("reduce work returns a scalar")),
            None => self.backend.reduce(
                &module.front.checked,
                &module.front.ir,
                kernel,
                op,
                module.plan.simds.kernel(kernel),
                input.index,
            ),
        }
    }

    /// Switches device dispatch between full execution and sampled cost
    /// estimation (no effect on backends without a device cost model).
    pub fn set_dispatch(&mut self, mode: DrawMode) {
        self.backend.set_dispatch_mode(mode);
    }

    /// Installs a device memory budget in bytes (BA002's runtime
    /// enforcement); `None` removes it.
    pub fn set_memory_budget(&mut self, bytes: Option<usize>) {
        self.backend.set_memory_budget(bytes);
    }

    /// Device execution counters for the performance model (zeros on
    /// backends without a cost model).
    pub fn gpu_counters(&self) -> GpuRun {
        self.backend.counters()
    }

    /// Resets device counters (e.g. to exclude warm-up and setup from a
    /// measurement window).
    pub fn reset_counters(&mut self) {
        self.backend.reset_counters();
    }

    /// Bytes of device memory currently allocated (0 on host backends).
    pub fn gpu_memory_used(&self) -> usize {
        self.backend.memory_used()
    }

    /// High-water mark of device memory over the context's lifetime (0
    /// on host backends). A correct static plan satisfies
    /// `plan.worst_case_bytes() >= ctx.gpu_memory_peak()` for the
    /// workload it models — the differential the BA002 artifact is
    /// audited against.
    pub fn gpu_memory_peak(&self) -> usize {
        self.backend.memory_peak()
    }

    // -- fault injection & recovery ---------------------------------------

    fn resilience_state(&mut self) -> &mut ResilienceState {
        self.resilience
            .get_or_insert_with(|| Box::new(ResilienceState::new()))
    }

    /// Arms deterministic fault injection: the plan's faults fire at
    /// their scheduled launch indices (runs and reduces share one
    /// logical launch counter; retries keep their launch's index).
    /// Without a [`ResiliencePolicy`], injected faults surface raw —
    /// errors return, panics unwind, hangs block until the installed
    /// [`CancelToken`] fires — which is exactly what the serve layer's
    /// shields are tested against. Install a policy to make the context
    /// recover instead.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.resilience_state().install_plan(plan);
    }

    /// Installs the recovery policy: deadlines, bounded retry with
    /// jittered backoff, panic containment, redundant-execution
    /// corruption detection and verified CPU failover. When the policy
    /// enables failover, host shadow copies of every stream are
    /// maintained from here on (streams created earlier are snapshotted
    /// now — which requires the device to still be readable).
    ///
    /// # Errors
    /// Shadow snapshotting of pre-existing streams can fail on a lost
    /// device.
    pub fn set_resilience(&mut self, policy: ResiliencePolicy) -> Result<()> {
        let count = self.streams_created;
        let state = self
            .resilience
            .get_or_insert_with(|| Box::new(ResilienceState::new()));
        state.policy = Some(policy);
        state.snapshot_missing(self.backend.as_mut(), count)
    }

    /// Installs the cancel token a watchdog uses to unwedge a hung or
    /// slow dispatch: cancelling it cuts every injected sleep short and
    /// fails the current attempt with [`BrookError::Timeout`]. The
    /// serve layer installs a fresh token per request.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.resilience_state().cancel = token;
    }

    /// Drains the per-launch resilience records accumulated since the
    /// last drain (the cumulative summary is unaffected). Empty when no
    /// fault plan or policy was ever installed.
    pub fn take_resilience_records(&mut self) -> Vec<LaunchResilience> {
        self.resilience
            .as_mut()
            .map(|s| s.take_records())
            .unwrap_or_default()
    }

    /// The cumulative resilience summary over this context's lifetime.
    pub fn resilience_summary(&self) -> ResilienceSummary {
        self.resilience.as_ref().map(|s| s.summary()).unwrap_or_default()
    }

    /// The full resilience evidence: undrained per-launch records plus
    /// the cumulative summary.
    pub fn resilience_report(&self) -> ResilienceReport {
        self.resilience.as_ref().map(|s| s.report()).unwrap_or_default()
    }

    /// The module's compliance report with this context's runtime
    /// resilience evidence folded in — the certification data package
    /// covering fault *response* as well as fault-free behavior.
    pub fn compliance_with_resilience(&self, module: &BrookModule) -> ComplianceReport {
        let mut report = module.report.clone();
        report.resilience = self.resilience_summary();
        report
    }

    /// Re-reads every failover shadow from the backend — the catch-up
    /// hook for execution paths that dispatch directly (the graph
    /// executor). No-op unless a failover-enabled policy is installed.
    pub(crate) fn resilience_sync_shadows(&mut self) -> Result<()> {
        match self.resilience.as_mut() {
            Some(state) => state.sync_shadows(self.backend.as_mut()),
            None => Ok(()),
        }
    }
}

/// The plan half of a compile: `front` planned for `engine`. Rejection
/// changes speed, never results: semantics are identical on every
/// engine by construction.
pub(crate) fn plan(front: Arc<Front>, engine: Engine) -> ModuleArtifact {
    use brook_cert::{LanePlan, SimdReduce, TierPlan};
    use brook_ir::{lanes::LaneProgram, simd::ReduceProgram, simd::SimdLevel, tier::TierProgram};
    let (ir, facts) = (&*front.ir, front.facts.as_slice());
    let (lanes, level) = match engine {
        Engine::Scalar => (LaneProgram::default(), SimdLevel::Scalar),
        Engine::Lanes(level) | Engine::Tier(level) => (LaneProgram::plan_program_with(ir, facts), level),
    };
    let tiers = match engine {
        Engine::Tier(level) => TierProgram::compile_program_simd(ir, &lanes, facts, level),
        _ => TierProgram::default(),
    };
    // Vectorized reduce: structurally matched reduce kernels whose
    // combine operand the analyzer proved NaN-free and sign-definite
    // fold through SIMD per-lane partials; every other reduce keeps the
    // serial scalar fold. Map kernels get no record.
    let simds = match level {
        SimdLevel::Scalar => ReduceProgram::default(),
        _ => ReduceProgram::plan_program_with(ir, facts, level),
    };
    let detail = |plan: std::result::Result<String, &String>| plan.unwrap_or_else(Clone::clone);
    let mut report = front.report.clone();
    report.lane_plans = (lanes.kernels.iter())
        .map(|(kernel, p)| LanePlan {
            kernel: kernel.clone(),
            vectorized: p.is_ok(),
            detail: detail(p.as_ref().map(|_| "lane-vectorized".into())),
        })
        .collect();
    report.tier_plans = (tiers.kernels.iter())
        .map(|(kernel, p)| TierPlan {
            kernel: kernel.clone(),
            compiled: p.is_ok(),
            detail: detail(p.as_ref().map(|t| t.detail())),
        })
        .collect();
    report.simd_reduces = (simds.kernels.iter())
        .map(|(kernel, p)| SimdReduce {
            kernel: kernel.clone(),
            admitted: p.is_ok(),
            detail: detail(p.as_ref().map(|r| r.detail.clone())),
        })
        .collect();
    let plan = Plan {
        engine,
        lanes: Arc::new(lanes),
        tiers: Arc::new(tiers),
        simds: Arc::new(simds),
    };
    ModuleArtifact { front, plan, report }
}

/// `(kernel, verifier message)` for every kernel of a module whose IR
/// failed verification — empty for every module the pipeline builds.
pub(crate) type IrRejects = Arc<Vec<(String, String)>>;

/// Verifies every kernel of a module's IR, once, where the module is
/// built. The IR is an immutable `Arc` from then on, so the verdict
/// holds for every launch.
pub(crate) fn verify_module_ir(ir: &IrProgram) -> IrRejects {
    Arc::new(
        ir.kernels
            .iter()
            .filter_map(|k| {
                brook_ir::verify::verify(k)
                    .err()
                    .map(|e| (k.name.clone(), e.to_string()))
            })
            .collect(),
    )
}

/// Reports the build-time IR-verification failure of a kernel about to
/// launch, if it has one. Shared by the eager path and the graph
/// executor so no backend can receive malformed IR.
pub(crate) fn report_ir_verdict(module: &BrookModule, kernel: &str) -> Result<()> {
    match module.front.ir_rejects.iter().find(|(k, _)| k == kernel) {
        Some((_, message)) => Err(BrookError::Usage(message.clone())),
        None => Ok(()),
    }
}

/// A classified kernel argument still carrying the *handle* (not a
/// backend index): the shared representation between the eager path
/// ([`BrookContext::run`], which resolves handles immediately) and the
/// deferred graph recorder (which resolves them at execute time, after
/// virtual streams have been materialized or fused away).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum HandleArg {
    /// Elementwise input stream.
    Elem(Stream),
    /// Random-access gather stream.
    Gather(Stream),
    /// Scalar uniform, already converted to its parameter type.
    Scalar(Value),
    /// Output stream.
    Out(Stream),
}

impl HandleArg {
    /// The backend-index form, valid once every handle is real.
    pub(crate) fn to_bound(self) -> BoundArg {
        match self {
            HandleArg::Elem(s) => BoundArg::Elem(s.index),
            HandleArg::Gather(s) => BoundArg::Gather(s.index),
            HandleArg::Scalar(v) => BoundArg::Scalar(v),
            HandleArg::Out(s) => BoundArg::Out(s.index),
        }
    }

    /// The stream this binding refers to, if any.
    pub(crate) fn stream(&self) -> Option<Stream> {
        match self {
            HandleArg::Elem(s) | HandleArg::Gather(s) | HandleArg::Out(s) => Some(*s),
            HandleArg::Scalar(_) => None,
        }
    }
}

/// Converts one scalar argument to its parameter's value type.
///
/// Float arguments for `int` parameters must be integral and within
/// `i32` range: `Arg::Float(2.9)` used to truncate silently to `2`,
/// which for loop bounds and gather strides is a wrong answer, not a
/// convenience. (The comparison goes through `f64`, where every `f32` is
/// exact, so `2^31` — unrepresentable in `f32`, which would otherwise
/// round `i32::MAX` on top of it — is rejected rather than saturated.)
pub(crate) fn convert_scalar(p: &Param, arg: &Arg<'_>) -> Result<Value> {
    let v = match (p.ty.width, arg) {
        (_, Arg::Stream(_)) => {
            return Err(BrookError::Usage(format!(
                "parameter `{}` is a scalar but a stream was passed",
                p.name
            )))
        }
        (1, Arg::Float(f)) => {
            if p.ty.scalar == brook_lang::ast::ScalarKind::Int {
                let fd = f64::from(*f);
                if fd.fract() != 0.0 || fd < f64::from(i32::MIN) || fd > f64::from(i32::MAX) {
                    return Err(BrookError::Usage(format!(
                        "parameter `{}` is an int scalar but {f:?} is not an integral value \
                         in i32 range; pass Arg::Int or an exact integral float",
                        p.name
                    )));
                }
                Value::Int(fd as i32)
            } else {
                Value::Float(*f)
            }
        }
        (1, Arg::Int(i)) => {
            if p.ty.scalar == brook_lang::ast::ScalarKind::Int {
                Value::Int(*i)
            } else {
                Value::Float(*i as f32)
            }
        }
        (2, Arg::Float2(v)) => Value::Vec2(*v),
        (3, Arg::Float3(v)) => Value::Vec3(*v),
        (4, Arg::Float4(v)) => Value::Vec4(*v),
        _ => {
            return Err(BrookError::Usage(format!(
                "argument for `{}` does not match its type {}",
                p.name, p.ty
            )))
        }
    };
    Ok(v)
}

/// Classifies positional arguments against a kernel's parameters into
/// handle-level bindings plus the output list — every launch-validation
/// rule the backends rely on, shared verbatim between the eager path and
/// the graph recorder so deferred execution can never accept a launch
/// the eager path would reject.
///
/// `lookup` resolves a stream handle to its descriptor, rejecting
/// foreign handles; it is the only part that differs between callers
/// (the context accepts its own streams, a graph additionally accepts
/// its virtual ones).
#[allow(clippy::type_complexity)]
pub(crate) fn classify_call<'d>(
    kdef: &KernelDef,
    kernel: &str,
    args: &[Arg<'_>],
    lookup: &mut dyn FnMut(&Stream) -> Result<&'d StreamDesc>,
) -> Result<(Vec<(String, HandleArg)>, Vec<(String, Stream)>)> {
    if kdef.is_reduce {
        return Err(BrookError::Usage(format!(
            "`{kernel}` is a reduce kernel; call `reduce` instead"
        )));
    }
    if args.len() != kdef.params.len() {
        return Err(BrookError::Usage(format!(
            "kernel `{kernel}` has {} parameters, {} arguments given",
            kdef.params.len(),
            args.len()
        )));
    }
    // A stream's element width must match the parameter's declared
    // width: the CPU engines slice buffers by the *declared* width (a
    // narrower stream panics out of bounds on the last element) and the
    // GL path silently truncates channels — both wrong answers for what
    // is a caller-side type error.
    let check_width = |p: &Param, desc: &StreamDesc| -> Result<()> {
        if desc.width != p.ty.width {
            return Err(BrookError::Usage(format!(
                "parameter `{}` has element type {} but the bound stream holds float{} \
                 elements",
                p.name,
                p.ty,
                if desc.width == 1 {
                    String::new()
                } else {
                    desc.width.to_string()
                }
            )));
        }
        Ok(())
    };
    let mut handle_args: Vec<(String, HandleArg)> = Vec::new();
    let mut outputs: Vec<(String, Stream)> = Vec::new();
    // All outputs execute over one domain (the first output's shape):
    // the CPU engines index every output buffer with it, so a smaller
    // second output would be written out of bounds, and the GL path
    // would render each output over its own viewport — diverging
    // domains. Enforced uniformly instead.
    let mut domain_shape: Option<&[usize]> = None;
    for (p, a) in kdef.params.iter().zip(args) {
        match (p.kind, a) {
            (ParamKind::Stream, Arg::Stream(s)) => {
                let desc = lookup(s)?;
                check_width(p, desc)?;
                handle_args.push((p.name.clone(), HandleArg::Elem(**s)));
            }
            (ParamKind::Gather { rank }, Arg::Stream(s)) => {
                // A rank-R gather must be bound to a rank-R stream: the
                // backends translate indices through the stream's
                // layout, and the CPU fallback for mismatched ranks
                // (first-index clamp) is not expressible in the GL index
                // translation — enforced here so every backend computes
                // the same element.
                let desc = lookup(s)?;
                let srank = desc.shape.len();
                if srank != rank as usize {
                    return Err(BrookError::Usage(format!(
                        "gather `{}` has rank {rank} but the bound stream has {srank} \
                         dimension(s)",
                        p.name
                    )));
                }
                check_width(p, desc)?;
                handle_args.push((p.name.clone(), HandleArg::Gather(**s)));
            }
            (ParamKind::OutStream, Arg::Stream(s)) => {
                let desc = lookup(s)?;
                check_width(p, desc)?;
                match domain_shape {
                    None => domain_shape = Some(&desc.shape),
                    Some(d) if d != desc.shape => {
                        return Err(BrookError::Usage(format!(
                            "output `{}` has shape {:?} but the kernel's output domain \
                             (the first output's shape) is {d:?}: all outputs of one \
                             launch share a single domain",
                            p.name, desc.shape
                        )))
                    }
                    Some(_) => {}
                }
                handle_args.push((p.name.clone(), HandleArg::Out(**s)));
                outputs.push((p.name.clone(), **s));
            }
            (ParamKind::Scalar, arg) => {
                handle_args.push((p.name.clone(), HandleArg::Scalar(convert_scalar(p, arg)?)));
            }
            (_, _) => {
                return Err(BrookError::Usage(format!(
                    "parameter `{}` needs a stream argument",
                    p.name
                )))
            }
        }
    }
    if outputs.is_empty() {
        return Err(BrookError::Usage(format!(
            "kernel `{kernel}` has no output streams"
        )));
    }
    // Brook kernels never read their own output (ping-pong streams
    // instead), and every output needs its own stream — enforced
    // uniformly so every backend may assume it.
    for (name, arg) in &handle_args {
        if let HandleArg::Elem(s) | HandleArg::Gather(s) = arg {
            if let Some((out_name, _)) = outputs.iter().find(|(_, o)| o == s) {
                return Err(BrookError::Usage(format!(
                    "stream bound to `{name}` is also the output `{out_name}`: Brook kernels \
                     cannot read their own output (use ping-pong streams)"
                )));
            }
        }
    }
    for (pos, (name, s)) in outputs.iter().enumerate() {
        if let Some((dup_name, _)) = outputs[..pos].iter().find(|(_, o)| o == s) {
            return Err(BrookError::Usage(format!(
                "outputs `{dup_name}` and `{name}` are bound to the same stream: each output \
                 parameter needs its own stream"
            )));
        }
    }
    Ok((handle_args, outputs))
}

#[cfg(test)]
mod tests {
    use super::*;

    const ADD: &str = "kernel void add(float a<>, float b<>, out float c<>) { c = a + b; }";

    /// An artifact whose IR failed verification when it was built hands
    /// that verdict to every module adopted from it, on every launch.
    #[test]
    fn adopted_artifact_carries_the_ir_verdict() {
        let mut ctx = BrookContext::cpu();
        let mut artifact = ctx.compile_artifact(ADD).unwrap();
        assert!(artifact.front.ir_rejects.is_empty());
        let mut ir = (*artifact.front.ir).clone();
        for inst in &mut ir.kernels[0].insts {
            if let brook_ir::Inst::Bin { op, .. } = inst {
                *op = brook_ir::BinOp::And;
            }
        }
        let front = Arc::make_mut(&mut artifact.front);
        front.ir_rejects = verify_module_ir(&ir);
        front.ir = Arc::new(ir.clone());
        let want = ctx.module_with_raw_ir(ADD, ir).unwrap().front.ir_rejects[0]
            .1
            .clone();
        assert!(want.contains("IR verification failed"), "{want}");
        let s: Vec<Stream> = (0..3).map(|_| ctx.stream(&[4]).unwrap()).collect();
        for _ in 0..2 {
            let module = ctx.adopt_artifact(&artifact).unwrap();
            for _ in 0..2 {
                let err = ctx
                    .run(
                        &module,
                        "add",
                        &[Arg::Stream(&s[0]), Arg::Stream(&s[1]), Arg::Stream(&s[2])],
                    )
                    .unwrap_err();
                assert!(matches!(&err, BrookError::Usage(m) if *m == want), "{err}");
            }
        }
    }

    /// Engine settings change only the plan: an artifact compiled on
    /// `cpu()` adopts into contexts with another engine by re-planning
    /// its shared front, and the module is the one their own `compile`
    /// builds. Front settings still refuse.
    #[test]
    fn adoption_replans_across_engines_and_refuses_across_fronts() {
        const SRC: &str = "kernel void add(float a<>, float b<>, out float c<>) { c = a + b; }
            reduce void lo(float a<>, reduce float r<>) { r = min(r, abs(a) + 1.0); }";
        let artifact = BrookContext::cpu().compile_artifact(SRC).unwrap();
        let engines: [fn(&mut BrookContext); 3] = [
            |c| c.lane_execution = false,
            |c| c.tier_execution = false,
            |c| c.simd_mode = brook_ir::simd::SimdMode::Off,
        ];
        for knob in engines {
            let mut ctx = BrookContext::cpu();
            knob(&mut ctx);
            let adopted = ctx.adopt_artifact(&artifact).unwrap();
            assert!(Arc::ptr_eq(&adopted.front.ir, &artifact.front.ir));
            let own = ctx.compile(SRC).unwrap();
            assert_eq!(format!("{:?}", adopted.report), format!("{:?}", own.report));
        }
        let fronts: [fn(&mut BrookContext); 3] = [
            |c| c.enforce_certification = false,
            |c| c.ir_optimize = false,
            |c| c.clamp_elision = false,
        ];
        let strict = CertConfig {
            max_inputs: 1,
            ..CertConfig::default()
        };
        let mut contexts: Vec<BrookContext> = fronts
            .iter()
            .map(|knob| {
                let mut ctx = BrookContext::cpu();
                knob(&mut ctx);
                ctx
            })
            .collect();
        contexts.push(BrookContext::with_backend(Box::new(CpuBackend::new()), strict));
        for mut ctx in contexts {
            let err = ctx.adopt_artifact(&artifact).unwrap_err();
            assert!(matches!(err, BrookError::Usage(_)), "{err}");
        }
    }

    /// One context per registered backend — every cross-backend test in
    /// this module runs the full matrix.
    fn all_contexts() -> Vec<BrookContext> {
        crate::backend::registered_backends()
            .iter()
            .map(|b| (b.make)())
            .collect()
    }

    #[test]
    fn add_kernel_on_both_backends() {
        for mut ctx in all_contexts() {
            let module = ctx.compile(ADD).unwrap();
            let a = ctx.stream(&[2, 3]).unwrap();
            let b = ctx.stream(&[2, 3]).unwrap();
            let c = ctx.stream(&[2, 3]).unwrap();
            ctx.write(&a, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
            ctx.write(&b, &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0]).unwrap();
            ctx.run(
                &module,
                "add",
                &[Arg::Stream(&a), Arg::Stream(&b), Arg::Stream(&c)],
            )
            .unwrap();
            assert_eq!(ctx.read(&c).unwrap(), vec![11.0, 22.0, 33.0, 44.0, 55.0, 66.0]);
        }
    }

    #[test]
    fn scalar_uniform_argument() {
        for mut ctx in all_contexts() {
            let module = ctx
                .compile("kernel void saxpy(float x<>, float y<>, float alpha, out float r<>) { r = alpha * x + y; }")
                .unwrap();
            let x = ctx.stream(&[4]).unwrap();
            let y = ctx.stream(&[4]).unwrap();
            let r = ctx.stream(&[4]).unwrap();
            ctx.write(&x, &[1.0, 2.0, 3.0, 4.0]).unwrap();
            ctx.write(&y, &[0.5, 0.5, 0.5, 0.5]).unwrap();
            ctx.run(
                &module,
                "saxpy",
                &[Arg::Stream(&x), Arg::Stream(&y), Arg::Float(2.0), Arg::Stream(&r)],
            )
            .unwrap();
            assert_eq!(ctx.read(&r).unwrap(), vec![2.5, 4.5, 6.5, 8.5]);
        }
    }

    /// GLES2 program-cache hygiene: a failed shader generation must
    /// leave no stale or partial cache entry, so a corrected module
    /// under the *same module id* (hence the same cache key) compiles
    /// fresh and runs — on both storage variants.
    #[test]
    fn failed_compile_leaves_no_stale_program_cache_entry() {
        // Reading a gather without an index certifies and lowers to a
        // codegen-fatal fault, so shader generation fails at dispatch
        // time. The fix keeps the signature (hence the cache key) and
        // indexes by data, so no clamp-elided variant changes the key.
        let broken = "kernel void k(float g[], float a<>, out float o<>) { o = g + a; }";
        let corrected = "kernel void k(float g[], float a<>, out float o<>) { o = g[a] + a; }";
        for device in [
            gles2_sim::DeviceProfile::videocore_iv(),  // packed storage
            gles2_sim::DeviceProfile::radeon_hd3400(), // native storage
        ] {
            let mut ctx = BrookContext::gles2(device);
            let bad = ctx.compile(broken).unwrap();
            let g = ctx.stream(&[4]).unwrap();
            let a = ctx.stream(&[4]).unwrap();
            let o = ctx.stream(&[4]).unwrap();
            ctx.write(&g, &[10.0, 20.0, 30.0, 40.0]).unwrap();
            ctx.write(&a, &[0.0, 1.0, 2.0, 3.0]).unwrap();
            let args = [Arg::Stream(&g), Arg::Stream(&a), Arg::Stream(&o)];
            let err = ctx.run(&bad, "k", &args).unwrap_err();
            assert!(
                matches!(err, BrookError::Codegen(brook_codegen::CodegenError::Unsupported(ref m)) if m.contains("without an index")),
                "expected a codegen failure, got: {err}"
            );
            // Same module id → same program-cache key as the failed
            // attempt. A stale entry would either re-fail or run the
            // broken shader; a clean cache compiles the fix.
            let mut good = ctx.compile(corrected).unwrap();
            good.id = bad.id;
            ctx.run(&good, "k", &args)
                .unwrap_or_else(|e| panic!("{}: corrected module must run: {e}", ctx.backend_name()));
            assert_eq!(ctx.read(&o).unwrap(), vec![10.0, 21.0, 32.0, 43.0]);
        }
    }

    #[test]
    fn certification_is_enforced_at_compile() {
        let mut ctx = BrookContext::cpu();
        let err = ctx
            .compile("kernel void f(float a<>, out float o<>) { while (a > 0.0) { } o = a; }")
            .unwrap_err();
        assert!(matches!(err, BrookError::Certification(_)));
    }

    #[test]
    fn reduce_on_both_backends() {
        for mut ctx in all_contexts() {
            let module = ctx
                .compile("reduce void sum(float a<>, reduce float r<>) { r += a; }")
                .unwrap();
            let a = ctx.stream(&[100]).unwrap();
            let data: Vec<f32> = (1..=100).map(|i| i as f32).collect();
            ctx.write(&a, &data).unwrap();
            let total = ctx.reduce(&module, "sum", &a).unwrap();
            assert_eq!(total, 5050.0);
        }
    }

    #[test]
    fn reduce_max_on_2d_stream() {
        for mut ctx in all_contexts() {
            let module = ctx
                .compile("reduce void m(float a<>, reduce float r<>) { r = max(r, a); }")
                .unwrap();
            let a = ctx.stream(&[8, 8]).unwrap();
            let mut data: Vec<f32> = (0..64).map(|i| (i as f32 * 37.0) % 53.0).collect();
            data[37] = 1000.0;
            ctx.write(&a, &data).unwrap();
            assert_eq!(ctx.reduce(&module, "m", &a).unwrap(), 1000.0);
        }
    }

    #[test]
    fn reduce_with_partial_tail_row() {
        // 2049 elements on a 2048-wide device: linear layout wraps to a
        // second row with a 1-element tail; masking must keep the sum
        // exact.
        for mut ctx in all_contexts() {
            let module = ctx
                .compile("reduce void sum(float a<>, reduce float r<>) { r += a; }")
                .unwrap();
            let n = 2049;
            let a = ctx.stream(&[n]).unwrap();
            let data: Vec<f32> = vec![1.0; n];
            ctx.write(&a, &data).unwrap();
            assert_eq!(ctx.reduce(&module, "sum", &a).unwrap(), n as f32);
        }
    }

    #[test]
    fn gather_kernel_matches_between_backends() {
        let src = "kernel void perm(float v[], float idx<>, out float o<>) { o = v[int(idx)]; }";
        let table: Vec<f32> = (0..16).map(|i| (i * i) as f32).collect();
        let idx: Vec<f32> = vec![3.0, 0.0, 15.0, 7.0];
        let mut results = Vec::new();
        for mut ctx in all_contexts() {
            let module = ctx.compile(src).unwrap();
            let v = ctx.stream(&[16]).unwrap();
            let ix = ctx.stream(&[4]).unwrap();
            let o = ctx.stream(&[4]).unwrap();
            ctx.write(&v, &table).unwrap();
            ctx.write(&ix, &idx).unwrap();
            ctx.run(
                &module,
                "perm",
                &[Arg::Stream(&v), Arg::Stream(&ix), Arg::Stream(&o)],
            )
            .unwrap();
            results.push(ctx.read(&o).unwrap());
        }
        assert_eq!(results[0], vec![9.0, 0.0, 225.0, 49.0]);
        for r in &results[1..] {
            assert_eq!(&results[0], r);
        }
    }

    #[test]
    fn indexof_matches_between_backends() {
        let src =
            "kernel void idx(float a<>, out float o<>) { float2 p = indexof(o); o = p.y * 100.0 + p.x; }";
        let mut results = Vec::new();
        for mut ctx in all_contexts() {
            let module = ctx.compile(src).unwrap();
            let a = ctx.stream(&[3, 4]).unwrap();
            let o = ctx.stream(&[3, 4]).unwrap();
            ctx.write(&a, &[0.0; 12]).unwrap();
            ctx.run(&module, "idx", &[Arg::Stream(&a), Arg::Stream(&o)])
                .unwrap();
            results.push(ctx.read(&o).unwrap());
        }
        for r in &results[1..] {
            assert_eq!(&results[0], r);
        }
        assert_eq!(results[0][0], 0.0);
        assert_eq!(results[0][5], 101.0); // row 1, col 1
    }

    #[test]
    fn multi_output_kernel_splits_passes() {
        for mut ctx in all_contexts() {
            let module = ctx
                .compile(
                    "kernel void two(float a<>, out float x<>, out float y<>) { x = a * 2.0; y = a + 1.0; }",
                )
                .unwrap();
            let a = ctx.stream(&[4]).unwrap();
            let x = ctx.stream(&[4]).unwrap();
            let y = ctx.stream(&[4]).unwrap();
            ctx.write(&a, &[1.0, 2.0, 3.0, 4.0]).unwrap();
            ctx.run(
                &module,
                "two",
                &[Arg::Stream(&a), Arg::Stream(&x), Arg::Stream(&y)],
            )
            .unwrap();
            assert_eq!(ctx.read(&x).unwrap(), vec![2.0, 4.0, 6.0, 8.0]);
            assert_eq!(ctx.read(&y).unwrap(), vec![2.0, 3.0, 4.0, 5.0]);
        }
    }

    #[test]
    fn duplicate_output_stream_rejected_on_every_backend() {
        // One stream bound to two `out` parameters must be a clean usage
        // error, not a backend-dependent panic or silent last-writer-wins.
        for mut ctx in all_contexts() {
            let module = ctx
                .compile("kernel void two(float a<>, out float x<>, out float y<>) { x = a; y = a + 1.0; }")
                .unwrap();
            let a = ctx.stream(&[4]).unwrap();
            let o = ctx.stream(&[4]).unwrap();
            ctx.write(&a, &[0.0; 4]).unwrap();
            let err = ctx
                .run(
                    &module,
                    "two",
                    &[Arg::Stream(&a), Arg::Stream(&o), Arg::Stream(&o)],
                )
                .unwrap_err();
            assert!(matches!(err, BrookError::Usage(_)), "{}", ctx.backend_name());
        }
    }

    #[test]
    fn writing_wrong_size_rejected() {
        let mut ctx = BrookContext::cpu();
        let s = ctx.stream(&[4]).unwrap();
        assert!(matches!(ctx.write(&s, &[1.0, 2.0]), Err(BrookError::Usage(_))));
    }

    #[test]
    fn foreign_stream_rejected() {
        let mut a = BrookContext::cpu();
        let mut b = BrookContext::cpu();
        let s = a.stream(&[4]).unwrap();
        assert!(matches!(b.write(&s, &[0.0; 4]), Err(BrookError::Usage(_))));
    }

    #[test]
    fn in_place_kernel_rejected_on_every_backend() {
        for mut ctx in all_contexts() {
            let module = ctx.compile(ADD).unwrap();
            let a = ctx.stream(&[4]).unwrap();
            let b = ctx.stream(&[4]).unwrap();
            ctx.write(&a, &[0.0; 4]).unwrap();
            ctx.write(&b, &[0.0; 4]).unwrap();
            let err = ctx
                .run(
                    &module,
                    "add",
                    &[Arg::Stream(&a), Arg::Stream(&b), Arg::Stream(&a)],
                )
                .unwrap_err();
            assert!(matches!(err, BrookError::Usage(_)), "{}", ctx.backend_name());
        }
    }

    #[test]
    fn memory_budget_enforced() {
        let mut ctx = BrookContext::gles2(DeviceProfile::videocore_iv());
        ctx.set_memory_budget(Some(10_000));
        assert!(ctx.stream(&[32, 32]).is_ok()); // 4 KiB texture
        let err = ctx.stream(&[64, 64]).unwrap_err(); // 16 KiB > remaining
        assert!(matches!(err, BrookError::Gl(gles2_sim::GlError::OutOfMemory(_))));
    }

    #[test]
    fn gpu_counters_track_transfers() {
        let mut ctx = BrookContext::gles2(DeviceProfile::videocore_iv());
        let module = ctx.compile(ADD).unwrap();
        let a = ctx.stream(&[8, 8]).unwrap();
        let b = ctx.stream(&[8, 8]).unwrap();
        let c = ctx.stream(&[8, 8]).unwrap();
        ctx.write(&a, &vec![1.0; 64]).unwrap();
        ctx.write(&b, &vec![2.0; 64]).unwrap();
        ctx.run(
            &module,
            "add",
            &[Arg::Stream(&a), Arg::Stream(&b), Arg::Stream(&c)],
        )
        .unwrap();
        let _ = ctx.read(&c).unwrap();
        let counters = ctx.gpu_counters();
        assert_eq!(counters.draw_calls, 1);
        assert_eq!(counters.bytes_uploaded, 2 * 64 * 4);
        assert_eq!(counters.bytes_downloaded, 64 * 4);
        assert!(counters.alu_ops > 0);
        assert_eq!(counters.readbacks, 1);
    }

    #[test]
    fn large_linear_stream_roundtrip() {
        // Wraps across texture rows (stride translation, paper §5.3).
        let mut ctx = BrookContext::gles2(DeviceProfile::videocore_iv());
        let n = 5000;
        let s = ctx.stream(&[n]).unwrap();
        let data: Vec<f32> = (0..n).map(|i| i as f32 * 0.5 - 100.0).collect();
        ctx.write(&s, &data).unwrap();
        assert_eq!(ctx.read(&s).unwrap(), data);
    }

    #[test]
    fn linear_kernel_across_rows() {
        let mut ctx = BrookContext::gles2(DeviceProfile::videocore_iv());
        let module = ctx
            .compile("kernel void dbl(float a<>, out float o<>) { o = a * 2.0; }")
            .unwrap();
        let n = 3000;
        let a = ctx.stream(&[n]).unwrap();
        let o = ctx.stream(&[n]).unwrap();
        let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
        ctx.write(&a, &data).unwrap();
        ctx.run(&module, "dbl", &[Arg::Stream(&a), Arg::Stream(&o)])
            .unwrap();
        let out = ctx.read(&o).unwrap();
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as f32 * 2.0, "element {i}");
        }
    }
}
