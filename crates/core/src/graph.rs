//! Deferred stream-graph execution: record kernel launches, fuse
//! producer→consumer chains into single passes, elide the intermediates.
//!
//! Eager execution pays the paper's pass-count economics in full: §6
//! *splits* multi-output kernels into one GL pass per output, and every
//! pass costs a texture round-trip. This module implements the converse
//! transform. A [`BrookGraph`] opened with [`crate::BrookContext::graph`]
//! records the same `run`/`reduce` calls the eager API takes, as a
//! dataflow DAG over streams; `execute()` then runs a planner that
//!
//! 1. **fuses** chains of elementwise kernels — a producer whose single
//!    output feeds exactly one consumer elementwise — into one synthetic
//!    kernel, by inlining the producer's **BrookIR** ahead of the
//!    consumer's: the producer's output writes become register
//!    assignments to a zero-initialized chain register, the consumer's
//!    elementwise reads of the intermediate become reads of that
//!    register, and both instruction streams concatenate with their
//!    structured region trees intact (no AST surgery, no re-parse), and
//! 2. **elides** the fused-away intermediates entirely: virtual streams
//!    created with [`BrookGraph::stream`] that no surviving launch
//!    touches are never allocated — no texture, no round-trip.
//!
//! Fusion can never bypass certification: every fused kernel is pushed
//! through the BrookIR verifier and the IR-level certification re-check
//! (`brook_cert::ir_check`) under the executing context's own limits,
//! then through the cert-gated optimization pipeline — the same
//! lower→check→optimize→re-check spine `compile` applies to user code.
//! A fusion the gate rejects (too many merged inputs, blown instruction
//! budget) is silently skipped and the original launches run unchanged —
//! the planner is an optimizer, not a loophole.
//! [`brook_cert::CertPredicates`] provides the cheap forward filter so
//! hopeless fusions never reach the gate.
//!
//! ## Fusability rules
//!
//! A producer P feeding a consumer C over stream `s` is fused only when:
//!
//! * `s` is **virtual** (graph-created, so no host handle can observe
//!   it) and is referenced exactly once — C's elementwise binding;
//! * P has exactly one output, written once (by P);
//! * every elementwise input and every output of both kernels shares
//!   `s`'s shape (so `indexof` is interchangeable across them); gather
//!   tables are exempt — random access inlines soundly;
//! * helper calls are no obstacle — they were already inlined into the
//!   IR by lowering (the AST-surgery planner had to veto them);
//! * no launch between P and C writes any stream P reads (fusion moves
//!   P's reads to C's position);
//! * the merged parameter lists pass
//!   [`CertPredicates::fusion_io_within_limits`], and the fused program
//!   passes the full gate.
//!
//! Execution itself is backend-agnostic: fused launches are ordinary
//! [`KernelLaunch`]es dispatched through the same
//! [`crate::backend::BackendExecutor`]
//! every eager launch uses, so all registered backends inherit fusion
//! for free — on the GL backend the fused GLSL falls out of codegen.
//!
//! ```
//! use brook_auto::{Arg, BrookContext};
//! let mut ctx = BrookContext::cpu();
//! let module = ctx.compile(
//!     "kernel void dbl(float a<>, out float o<>) { o = a * 2.0; }
//!      kernel void inc(float a<>, out float o<>) { o = a + 1.0; }",
//! )?;
//! let a = ctx.stream(&[4])?;
//! let out = ctx.stream(&[4])?;
//! ctx.write(&a, &[1.0, 2.0, 3.0, 4.0])?;
//! let mut g = ctx.graph();
//! let tmp = g.stream(&[4])?; // virtual: never allocated when fused away
//! g.run(&module, "dbl", &[Arg::Stream(&a), Arg::Stream(&tmp)])?;
//! g.run(&module, "inc", &[Arg::Stream(&tmp), Arg::Stream(&out)])?;
//! let report = g.execute()?;
//! assert_eq!(report.eager_passes, 2);
//! assert_eq!(report.executed_passes, 1);
//! assert_eq!(report.elided_streams, 1);
//! assert_eq!(ctx.read(&out)?, vec![3.0, 5.0, 7.0, 9.0]);
//! # Ok::<(), brook_auto::BrookError>(())
//! ```

use crate::backend::KernelLaunch;
use crate::context::{
    classify_call, fresh_owner_id, report_ir_verdict, Arg, BrookContext, BrookModule, HandleArg,
};
use crate::error::{BrookError, Result};
use crate::stream::{Stream, StreamDesc};
use brook_cert::CertPredicates;
use brook_ir::{Inst, IrKernel, IrParam, IrProgram, LoopNode, Node, Reg};
use brook_lang::ast::{ParamKind, ScalarKind, Type};
use brook_lang::ReduceOp;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Ticket for a recorded `reduce`; redeem it against the issuing
/// graph's [`GraphReport`] after `execute()`. Like streams and modules,
/// the handle is stamped with its owner — redeeming it against another
/// graph's report is rejected instead of silently returning that
/// graph's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceHandle {
    slot: usize,
    graph_id: u64,
}

/// One synthetic kernel the planner created.
#[derive(Debug, Clone)]
pub struct FusedKernel {
    /// Name of the fused kernel (derived from its constituents).
    pub name: String,
    /// Kernel names folded into it, producer first.
    pub replaced: Vec<String>,
    /// Canonical BrookIR text of the fused kernel — the exact form that
    /// went through the IR verifier + certification re-check (and the
    /// golden-snapshot anchor).
    pub source: String,
    /// The fused IR itself (what every backend executes / the GL
    /// backend generates GLSL from).
    pub ir: Arc<IrProgram>,
}

/// What `execute()` did: the launch plan it ran and what fusion saved.
#[derive(Debug, Clone)]
pub struct GraphReport {
    /// Passes the recording would have cost eagerly (one per output per
    /// launch, one per reduce).
    pub eager_passes: usize,
    /// Passes actually executed after fusion.
    pub executed_passes: usize,
    /// Virtual intermediates fused away — never allocated on the
    /// backend.
    pub elided_streams: usize,
    /// Bytes of device traffic the elided intermediates would have cost
    /// (one texture write plus one texture read each).
    pub intermediate_bytes_elided: usize,
    /// The synthetic kernels the planner built, in creation order.
    pub fused: Vec<FusedKernel>,
    reduce_values: Vec<f32>,
    graph_id: u64,
}

impl GraphReport {
    /// The scalar a recorded `reduce` produced.
    ///
    /// # Panics
    /// Panics when the handle was issued by a different graph — a caller
    /// bug (mixed-up recordings), not a runtime condition, so it is not
    /// a recoverable error.
    pub fn reduce_value(&self, handle: ReduceHandle) -> f32 {
        assert_eq!(
            handle.graph_id, self.graph_id,
            "ReduceHandle redeemed against a different graph's report"
        );
        self.reduce_values[handle.slot]
    }
}

enum OpKind {
    Launch {
        module: BrookModule,
        kernel: String,
        args: Vec<(String, HandleArg)>,
        outputs: Vec<(String, Stream)>,
        /// Kernel names this launch stands for (len > 1 after fusion).
        replaced: Vec<String>,
    },
    Reduce {
        module: BrookModule,
        kernel: String,
        op: ReduceOp,
        input: Stream,
        slot: usize,
    },
}

struct Op {
    /// Stable identity across plan rewrites (indices shift when ops
    /// merge; the planner's no-retry set is keyed on uids).
    uid: usize,
    kind: OpKind,
}

/// A deferred recording of kernel launches on one context.
///
/// Obtained from [`crate::BrookContext::graph`]; borrows the context
/// exclusively until [`BrookGraph::execute`] consumes the recording, so
/// the captured dataflow cannot be invalidated mid-recording.
pub struct BrookGraph<'ctx> {
    ctx: &'ctx mut BrookContext,
    graph_id: u64,
    virtuals: Vec<StreamDesc>,
    ops: Vec<Op>,
    next_uid: usize,
    n_reduces: usize,
}

impl<'ctx> BrookGraph<'ctx> {
    pub(crate) fn new(ctx: &'ctx mut BrookContext) -> Self {
        BrookGraph {
            ctx,
            graph_id: fresh_owner_id(),
            virtuals: Vec::new(),
            ops: Vec::new(),
            next_uid: 0,
            n_reduces: 0,
        }
    }

    fn uid(&mut self) -> usize {
        let u = self.next_uid;
        self.next_uid += 1;
        u
    }

    /// Creates a *virtual* scalar `float` stream: a handle usable only
    /// inside this recording. If fusion elides it, it is never allocated
    /// on the backend; otherwise it is materialized at execute time.
    ///
    /// # Errors
    /// Shape violations (same rules as [`crate::BrookContext::stream`]).
    pub fn stream(&mut self, shape: &[usize]) -> Result<Stream> {
        self.stream_with_width(shape, 1)
    }

    /// Creates a virtual stream of `floatN` elements (`width` in 1..=4).
    ///
    /// # Errors
    /// As [`BrookGraph::stream`].
    pub fn stream_with_width(&mut self, shape: &[usize], width: u8) -> Result<Stream> {
        crate::stream::validate_stream_params(shape, width).map_err(BrookError::Usage)?;
        let index = self.virtuals.len();
        self.virtuals.push(StreamDesc {
            shape: shape.to_vec(),
            width,
        });
        Ok(Stream {
            index,
            context_id: self.graph_id,
        })
    }

    fn lookup_desc(&self, s: &Stream) -> Result<&StreamDesc> {
        lookup_stream_desc(self.ctx, self.graph_id, &self.virtuals, s)
    }

    /// Compiles and certifies Brook source on the underlying context —
    /// a passthrough so recording code that owns the graph (which holds
    /// the context borrow) can still compile modules.
    ///
    /// # Errors
    /// As [`crate::BrookContext::compile`].
    pub fn compile(&mut self, source: &str) -> Result<BrookModule> {
        self.ctx.compile(source)
    }

    /// Records a kernel launch — same signature, same validation and
    /// same error surface as [`crate::BrookContext::run`], but nothing
    /// executes until [`BrookGraph::execute`].
    ///
    /// # Errors
    /// Exactly the eager path's: argument/parameter mismatches, foreign
    /// streams and foreign modules.
    pub fn run(&mut self, module: &BrookModule, kernel: &str, args: &[Arg<'_>]) -> Result<()> {
        self.ctx.check_module(module)?;
        let kdef = module
            .checked
            .program
            .kernel(kernel)
            .ok_or_else(|| BrookError::Usage(format!("unknown kernel `{kernel}`")))?;
        let graph_id = self.graph_id;
        let (args, outputs) = {
            let ctx = &*self.ctx;
            let virtuals = &self.virtuals;
            classify_call(kdef, kernel, args, &mut |s: &Stream| {
                lookup_stream_desc(ctx, graph_id, virtuals, s)
            })?
        };
        let uid = self.uid();
        self.ops.push(Op {
            uid,
            kind: OpKind::Launch {
                module: module.clone(),
                kernel: kernel.to_owned(),
                args,
                outputs,
                replaced: vec![kernel.to_owned()],
            },
        });
        Ok(())
    }

    /// Records a reduction; the scalar becomes available on the report
    /// via the returned handle after `execute()`.
    ///
    /// # Errors
    /// As [`crate::BrookContext::reduce`] (unknown/non-reduce kernels,
    /// foreign streams/modules).
    pub fn reduce(&mut self, module: &BrookModule, kernel: &str, input: &Stream) -> Result<ReduceHandle> {
        self.ctx.check_module(module)?;
        self.lookup_desc(input)?;
        let summary = module
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
        let slot = self.n_reduces;
        self.n_reduces += 1;
        let uid = self.uid();
        self.ops.push(Op {
            uid,
            kind: OpKind::Reduce {
                module: module.clone(),
                kernel: kernel.to_owned(),
                op,
                input: *input,
                slot,
            },
        });
        Ok(ReduceHandle {
            slot,
            graph_id: self.graph_id,
        })
    }

    /// Pass cost of the current plan: one per output per launch (the §6
    /// splitting), one per reduce.
    fn passes(&self) -> usize {
        self.ops
            .iter()
            .map(|o| match &o.kind {
                OpKind::Launch { outputs, .. } => outputs.len(),
                OpKind::Reduce { .. } => 1,
            })
            .sum()
    }

    /// Optimizes the recorded graph, materializes surviving virtual
    /// streams, runs every planned launch on the context's backend and
    /// returns the report.
    ///
    /// # Errors
    /// Backend failures during materialization or dispatch. Planning
    /// itself never fails a recording the eager path would have run:
    /// unfusable or gate-rejected chains simply execute unfused.
    pub fn execute(mut self) -> Result<GraphReport> {
        let eager_passes = self.passes();
        let (elided, fused) = self.fuse_pass();
        let executed_passes = self.passes();
        let intermediate_bytes_elided = elided.iter().map(|d| d.scalar_len() * 4 * 2).sum();

        // Materialize every virtual stream a surviving launch touches.
        let mut needed: Vec<usize> = Vec::new();
        for op in &self.ops {
            let streams: Vec<Stream> = match &op.kind {
                OpKind::Launch { args, .. } => args.iter().filter_map(|(_, h)| h.stream()).collect(),
                OpKind::Reduce { input, .. } => vec![*input],
            };
            for s in streams {
                if s.context_id == self.graph_id && !needed.contains(&s.index) {
                    needed.push(s.index);
                }
            }
        }
        let mut materialized: HashMap<usize, Stream> = HashMap::new();
        for v in needed {
            let desc = self.virtuals[v].clone();
            let real = self.ctx.stream_with_width(&desc.shape, desc.width)?;
            materialized.insert(v, real);
        }
        let graph_id = self.graph_id;
        let resolve = |s: Stream| -> Stream {
            if s.context_id == graph_id {
                materialized[&s.index]
            } else {
                s
            }
        };

        let mut reduce_values = vec![0.0f32; self.n_reduces];
        for op in &self.ops {
            match &op.kind {
                OpKind::Launch {
                    module,
                    kernel,
                    args,
                    outputs,
                    ..
                } => {
                    let bound = args
                        .iter()
                        .map(|(n, h)| {
                            let h = match h {
                                HandleArg::Elem(s) => HandleArg::Elem(resolve(*s)),
                                HandleArg::Gather(s) => HandleArg::Gather(resolve(*s)),
                                HandleArg::Out(s) => HandleArg::Out(resolve(*s)),
                                HandleArg::Scalar(v) => HandleArg::Scalar(*v),
                            };
                            (n.clone(), h.to_bound())
                        })
                        .collect();
                    report_ir_verdict(module, kernel)?;
                    let launch = KernelLaunch {
                        checked: &module.checked,
                        ir: &module.ir,
                        lanes: &module.lanes,
                        tiers: &module.tiers,
                        module_id: module.id,
                        kernel,
                        args: bound,
                        outputs: outputs
                            .iter()
                            .map(|(n, s)| (n.clone(), resolve(*s).index))
                            .collect(),
                    };
                    self.ctx.backend.dispatch(&launch)?;
                }
                OpKind::Reduce {
                    module,
                    kernel,
                    op,
                    input,
                    slot,
                } => {
                    report_ir_verdict(module, kernel)?;
                    reduce_values[*slot] = self.ctx.backend.reduce(
                        &module.checked,
                        &module.ir,
                        kernel,
                        *op,
                        module.simds.kernel(kernel),
                        resolve(*input).index,
                    )?;
                }
            }
        }
        // Graph execution dispatches directly (no per-launch ladder);
        // bring failover shadows back in sync with device state.
        self.ctx.resilience_sync_shadows()?;
        Ok(GraphReport {
            eager_passes,
            executed_passes,
            elided_streams: elided.len(),
            intermediate_bytes_elided,
            fused,
            reduce_values,
            graph_id,
        })
    }

    // -- planner -------------------------------------------------------------

    /// Repeatedly fuses the first admissible producer→consumer pair
    /// until none remains. Returns the elided intermediates' descriptors
    /// and the fused-kernel records.
    fn fuse_pass(&mut self) -> (Vec<StreamDesc>, Vec<FusedKernel>) {
        let mut elided = Vec::new();
        let mut fused = Vec::new();
        // Pairs the gate (or construction) already rejected, by op uid —
        // never retried, so the scan terminates.
        let mut rejected: HashSet<(usize, usize)> = HashSet::new();
        while let Some((i, j, inter)) = self.find_candidate(&rejected) {
            let pair = (self.ops[i].uid, self.ops[j].uid);
            match self.try_fuse(i, j, inter) {
                Some((kind, record)) => {
                    elided.push(self.virtuals[inter.index].clone());
                    fused.push(record);
                    let uid = self.uid();
                    self.ops[j] = Op { uid, kind };
                    self.ops.remove(i);
                }
                None => {
                    rejected.insert(pair);
                }
            }
        }
        (elided, fused)
    }

    /// Finds the first fusable (producer index, consumer index,
    /// intermediate) triple the cheap rules admit and `rejected` does
    /// not veto. The expensive check — the certification gate on the
    /// fused program — happens in `try_fuse`.
    fn find_candidate(&self, rejected: &HashSet<(usize, usize)>) -> Option<(usize, usize, Stream)> {
        for j in 0..self.ops.len() {
            let OpKind::Launch {
                args: c_args,
                outputs: c_outputs,
                ..
            } = &self.ops[j].kind
            else {
                continue;
            };
            for (_, h) in c_args {
                let HandleArg::Elem(s) = h else { continue };
                if s.context_id != self.graph_id {
                    continue; // only virtual intermediates are elidable
                }
                // Exactly one writer, before the consumer.
                let writers: Vec<usize> = (0..self.ops.len())
                    .filter(|&k| self.writes(&self.ops[k].kind, *s))
                    .collect();
                let [i] = writers[..] else { continue };
                if i >= j {
                    continue;
                }
                if rejected.contains(&(self.ops[i].uid, self.ops[j].uid)) {
                    continue;
                }
                // Exactly one reader anywhere: this binding.
                if self.read_count(*s) != 1 {
                    continue;
                }
                let OpKind::Launch {
                    module: p_module,
                    kernel: p_kernel,
                    args: p_args,
                    outputs: p_outputs,
                    ..
                } = &self.ops[i].kind
                else {
                    continue;
                };
                if p_outputs.len() != 1 {
                    continue;
                }
                // Shape/width uniformity across the chain (gathers exempt).
                let inter_desc = &self.virtuals[s.index];
                if !self.elementwise_uniform(p_args, p_outputs, inter_desc)
                    || !self.elementwise_uniform(c_args, c_outputs, inter_desc)
                {
                    continue;
                }
                let p_out_ty = p_module
                    .ir
                    .kernel(p_kernel)
                    .and_then(|k| k.params.iter().find(|p| p.kind == ParamKind::OutStream));
                let widths_ok = p_out_ty
                    .is_some_and(|p| p.ty.scalar == ScalarKind::Float && p.ty.width == inter_desc.width);
                if !widths_ok {
                    continue;
                }
                // Fusion moves the producer's reads to the consumer's
                // position; nothing in between may overwrite them.
                let p_reads: Vec<Stream> = p_args
                    .iter()
                    .filter_map(|(_, h)| match h {
                        HandleArg::Elem(s) | HandleArg::Gather(s) => Some(*s),
                        _ => None,
                    })
                    .collect();
                let interference =
                    (i + 1..j).any(|k| p_reads.iter().any(|r| self.writes(&self.ops[k].kind, *r)));
                if interference {
                    continue;
                }
                // The producer's reads must also be disjoint from the
                // consumer's outputs: a read-then-overwrite pipeline
                // (P reads x, C writes x) is legal eagerly, but fused it
                // would become a kernel reading its own output — the
                // exact launch shape `classify_call` forbids.
                if p_reads.iter().any(|r| c_outputs.iter().any(|(_, o)| o == r)) {
                    continue;
                }
                // Cheap gate pre-filter: merged I/O within limits.
                let mut inputs: HashSet<(u64, usize)> = HashSet::new();
                for (_, h) in p_args.iter().chain(c_args) {
                    if let HandleArg::Elem(st) | HandleArg::Gather(st) = h {
                        if st != s {
                            inputs.insert((st.context_id, st.index));
                        }
                    }
                }
                let preds = CertPredicates::new(self.ctx.cert_config());
                if !preds.fusion_io_within_limits(inputs.len() as u32, c_outputs.len() as u32) {
                    continue;
                }
                return Some((i, j, *s));
            }
        }
        None
    }

    fn writes(&self, kind: &OpKind, s: Stream) -> bool {
        match kind {
            OpKind::Launch { outputs, .. } => outputs.iter().any(|(_, o)| *o == s),
            OpKind::Reduce { .. } => false,
        }
    }

    /// How many times `s` is read anywhere in the plan (elementwise,
    /// gather, or as a reduce input).
    fn read_count(&self, s: Stream) -> usize {
        self.ops
            .iter()
            .map(|op| match &op.kind {
                OpKind::Launch { args, .. } => args
                    .iter()
                    .filter(|(_, h)| matches!(h, HandleArg::Elem(x) | HandleArg::Gather(x) if *x == s))
                    .count(),
                OpKind::Reduce { input, .. } => usize::from(*input == s),
            })
            .sum()
    }

    /// True when every elementwise input and every output of a launch
    /// shares `domain`'s shape — the condition under which `indexof` is
    /// interchangeable across the chain.
    fn elementwise_uniform(
        &self,
        args: &[(String, HandleArg)],
        outputs: &[(String, Stream)],
        domain: &StreamDesc,
    ) -> bool {
        let shape_of = |s: &Stream| self.lookup_desc(s).map(|d| &d.shape).ok();
        args.iter().all(|(_, h)| match h {
            HandleArg::Elem(s) => shape_of(s).is_some_and(|sh| *sh == domain.shape),
            _ => true,
        }) && outputs
            .iter()
            .all(|(_, s)| shape_of(s).is_some_and(|sh| *sh == domain.shape))
    }

    /// Builds the fused IR kernel for `ops[i] → ops[j]` over `inter`,
    /// pushes it through the IR verifier + certification re-check (and
    /// the cert-gated pass pipeline), and returns the replacement op.
    /// `None` means "leave the pair unfused" — the gate rejected it.
    fn try_fuse(&mut self, i: usize, j: usize, inter: Stream) -> Option<(OpKind, FusedKernel)> {
        let built = {
            let OpKind::Launch {
                module: p_module,
                kernel: p_kernel,
                args: p_args,
                replaced: p_replaced,
                ..
            } = &self.ops[i].kind
            else {
                return None;
            };
            let OpKind::Launch {
                module: c_module,
                kernel: c_kernel,
                args: c_args,
                outputs: c_outputs,
                replaced: c_replaced,
            } = &self.ops[j].kind
            else {
                return None;
            };
            let p_ir = p_module.ir.kernel(p_kernel)?;
            let c_ir = c_module.ir.kernel(c_kernel)?;
            let replaced: Vec<String> = p_replaced.iter().chain(c_replaced).cloned().collect();
            let name = format!("fused_{}", replaced.join("_"));
            build_fused_ir(&name, p_ir, p_args, c_ir, c_args, inter).map(|(kernel, args, out_names)| {
                (
                    kernel,
                    args,
                    out_names
                        .into_iter()
                        .zip(c_outputs)
                        .map(|(n, (_, s))| (n, *s))
                        .collect::<Vec<_>>(),
                    replaced,
                    name,
                    c_module.checked.clone(),
                )
            })
        };
        let (kernel, args, outputs, replaced, name, checked) = built?;
        // The real gate: verify the fused IR and re-run the IR-level
        // certification check under this context's limits, then the
        // cert-gated pass pipeline — the same spine `compile` applies.
        // Any rejection leaves the chain unfused.
        brook_ir::verify::verify(&kernel).ok()?;
        if !brook_cert::ir_check::check_kernel(&kernel, self.ctx.cert_config()).is_compliant() {
            return None;
        }
        let mut program = IrProgram {
            kernels: vec![kernel],
        };
        let passes = if self.ctx.ir_optimize {
            brook_cert::ir_check::optimize_program(
                &mut program,
                self.ctx.cert_config(),
                &brook_ir::passes::default_passes(),
            )
        } else {
            Vec::new()
        };
        // Fused kernels take the same post-pass analysis spine as
        // `compile`: provable faults unfuse the chain, gather proofs
        // carry into the fused module, planner facts feed lanes/tier.
        let (analysis, facts) =
            brook_cert::absint::analyze_and_annotate_program(&mut program, self.ctx.clamp_elision);
        if analysis.kernels.iter().any(|k| !k.faults.is_empty()) {
            return None;
        }
        let ir = Arc::new(program);
        // Fused kernels are ordinary IrKernels, so they inherit lane
        // vectorization for free: plan them exactly as `compile` does.
        let lanes = if self.ctx.lane_execution {
            brook_ir::lanes::LaneProgram::plan_program_with(&ir, &facts)
        } else {
            brook_ir::lanes::LaneProgram::default()
        };
        let lane_plans = crate::context::lane_plan_records(&lanes);
        // Fused kernels are tier-compiled at fuse time, exactly like
        // `compile` does, at the context's SIMD level: the collapsed
        // producer->consumer chain goes straight to the closure-threaded
        // engine when admitted.
        let tiers = if self.ctx.lane_execution && self.ctx.tier_execution {
            brook_ir::tier::TierProgram::compile_program_simd(
                &ir,
                &lanes,
                &facts,
                self.ctx.simd_mode.resolve(),
            )
        } else {
            brook_ir::tier::TierProgram::default()
        };
        let tier_plans = crate::context::tier_plan_records(&tiers);
        let source = brook_ir::pretty::print_program(&ir);
        let module = BrookModule {
            checked,
            ir_rejects: crate::context::verify_module_ir(&ir),
            ir: ir.clone(),
            lanes: Arc::new(lanes),
            tiers: Arc::new(tiers),
            // Fused chains are map kernels, never reductions.
            simds: Arc::new(brook_ir::simd::ReduceProgram::default()),
            report: brook_cert::ComplianceReport {
                kernels: Vec::new(),
                passes,
                lane_plans,
                tier_plans,
                simd_reduces: Vec::new(),
                analysis,
                resilience: Default::default(),
            },
            id: crate::context::fresh_module_id(),
            context_id: self.ctx.context_id,
        };
        let record = FusedKernel {
            name: name.clone(),
            replaced: replaced.clone(),
            source,
            ir,
        };
        Some((
            OpKind::Launch {
                module,
                kernel: name,
                args,
                outputs,
                replaced,
            },
            record,
        ))
    }
}

/// How a stage parameter maps into the fused kernel.
#[derive(Clone, Copy)]
enum PAct {
    /// Becomes fused parameter `fused_param_index`.
    Fused(u16),
    /// The chain edge (the consumer's elementwise read of the
    /// intermediate, or the producer's output): becomes the chain
    /// register.
    Chain,
}

/// Constructs the fused IR kernel for producer→consumer over `inter`:
/// canonical parameter names (`in*` elementwise, `g*` gathers, `k*`
/// scalars, `o*` outputs, streams deduplicated by identity), the
/// producer's instruction stream first with its output stores rewritten
/// to assignments of the zero-initialized chain register `r0` (virtual
/// intermediates are zero-filled, so conditional producer writes keep
/// eager semantics), then the consumer's stream reading `r0` where it
/// read the intermediate. `indexof` of the vanished intermediate (or of
/// the producer's output) is redirected to the first fused output —
/// sound because the planner already proved the chain
/// elementwise-uniform.
///
/// Returns `(fused kernel, fused bindings, fused output names)`.
#[allow(clippy::type_complexity)]
fn build_fused_ir(
    name: &str,
    p_ir: &IrKernel,
    p_args: &[(String, HandleArg)],
    c_ir: &IrKernel,
    c_args: &[(String, HandleArg)],
    inter: Stream,
) -> Option<(IrKernel, Vec<(String, HandleArg)>, Vec<String>)> {
    let mut ins: Vec<(IrParam, HandleArg)> = Vec::new();
    let mut outs: Vec<(IrParam, HandleArg)> = Vec::new();
    let mut by_stream: HashMap<(u64, usize), u16> = HashMap::new();
    let (mut n_in, mut n_g, mut n_k, mut n_out) = (0usize, 0usize, 0usize, 0usize);

    let mut map_stage =
        |ir: &IrKernel, args: &[(String, HandleArg)], is_consumer: bool| -> Option<Vec<PAct>> {
            if ir.params.len() != args.len() {
                return None;
            }
            let mut acts = Vec::with_capacity(ir.params.len());
            for (p, (_, h)) in ir.params.iter().zip(args) {
                let act = match (p.kind, h) {
                    (ParamKind::Stream, HandleArg::Elem(st)) if *st == inter => PAct::Chain,
                    (ParamKind::Stream, HandleArg::Elem(st)) => {
                        let idx = *by_stream.entry((st.context_id, st.index)).or_insert_with(|| {
                            let idx = ins.len() as u16;
                            ins.push((
                                IrParam {
                                    name: format!("in{n_in}"),
                                    ty: p.ty,
                                    kind: ParamKind::Stream,
                                },
                                HandleArg::Elem(*st),
                            ));
                            n_in += 1;
                            idx
                        });
                        PAct::Fused(idx)
                    }
                    (ParamKind::Gather { rank }, HandleArg::Gather(st)) => {
                        let idx = *by_stream.entry((st.context_id, st.index)).or_insert_with(|| {
                            let idx = ins.len() as u16;
                            ins.push((
                                IrParam {
                                    name: format!("g{n_g}"),
                                    ty: p.ty,
                                    kind: ParamKind::Gather { rank },
                                },
                                HandleArg::Gather(*st),
                            ));
                            n_g += 1;
                            idx
                        });
                        PAct::Fused(idx)
                    }
                    (ParamKind::Scalar, HandleArg::Scalar(v)) => {
                        let idx = ins.len() as u16;
                        ins.push((
                            IrParam {
                                name: format!("k{n_k}"),
                                ty: p.ty,
                                kind: ParamKind::Scalar,
                            },
                            HandleArg::Scalar(*v),
                        ));
                        n_k += 1;
                        PAct::Fused(idx)
                    }
                    (ParamKind::OutStream, HandleArg::Out(st)) => {
                        if is_consumer {
                            let idx = outs.len() as u16;
                            outs.push((
                                IrParam {
                                    name: format!("o{n_out}"),
                                    ty: p.ty,
                                    kind: ParamKind::OutStream,
                                },
                                HandleArg::Out(*st),
                            ));
                            n_out += 1;
                            PAct::Fused(idx) // index into `outs`; rebased below
                        } else {
                            PAct::Chain
                        }
                    }
                    _ => return None,
                };
                acts.push(act);
            }
            Some(acts)
        };

    // A producer with a kernel-level `return;` cannot concatenate: its
    // Ret would terminate the *fused* element before the consumer's
    // body runs, silently diverging from eager execution. (A consumer
    // Ret is fine — the producer has already run by then.)
    if p_ir.insts.iter().any(|i| matches!(i, Inst::Ret)) {
        return None;
    }
    let p_acts = map_stage(p_ir, p_args, false)?;
    let c_acts = map_stage(c_ir, c_args, true)?;
    let n_ins = ins.len() as u16;
    // Rebase output actions past the input parameters.
    let rebase = |acts: Vec<PAct>, ir: &IrKernel| -> Vec<PAct> {
        acts.into_iter()
            .zip(&ir.params)
            .map(|(a, p)| match (a, p.kind) {
                (PAct::Fused(i), ParamKind::OutStream) => PAct::Fused(n_ins + i),
                other => other.0,
            })
            .collect()
    };
    let p_acts = rebase(p_acts, p_ir);
    let c_acts = rebase(c_acts, c_ir);
    if outs.is_empty() {
        return None;
    }
    let o0_param = n_ins; // fused param index of the first output

    // The chain register mirrors the virtual intermediate: zero-filled
    // before the producer runs.
    let p_out = p_ir.params.iter().find(|p| p.kind == ParamKind::OutStream)?;
    if p_out.ty.scalar != ScalarKind::Float {
        return None;
    }
    let chain: Reg = 0;
    let mut regs: Vec<Type> = Vec::with_capacity(1 + p_ir.regs.len() + c_ir.regs.len());
    regs.push(p_out.ty);
    regs.extend(p_ir.regs.iter().copied());
    regs.extend(c_ir.regs.iter().copied());

    let mut insts: Vec<Inst> = Vec::with_capacity(1 + p_ir.insts.len() + c_ir.insts.len());
    let mut spans = Vec::with_capacity(insts.capacity());
    insts.push(Inst::Const {
        dst: chain,
        v: glsl_es::Value::zero(brook_ir::eval::brook_to_glsl_type(p_out.ty)),
    });
    spans.push(brook_lang::span::Span::synthetic());

    let append_stage = |insts: &mut Vec<Inst>,
                        spans: &mut Vec<brook_lang::span::Span>,
                        ir: &IrKernel,
                        acts: &[PAct],
                        reg_off: u32,
                        inst_off: u32,
                        is_consumer: bool|
     -> Option<()> {
        for (inst, span) in ir.insts.iter().zip(&ir.spans) {
            let mut inst = inst.clone();
            shift_regs(&mut inst, reg_off);
            let mapped = match inst {
                Inst::ReadElem { dst, param } => match acts[param as usize] {
                    PAct::Fused(fp) => Inst::ReadElem { dst, param: fp },
                    PAct::Chain => Inst::Mov { dst, src: chain },
                },
                Inst::ReadScalar { dst, param } => match acts[param as usize] {
                    PAct::Fused(fp) => Inst::ReadScalar { dst, param: fp },
                    PAct::Chain => return None,
                },
                Inst::Gather {
                    dst,
                    param,
                    idx,
                    proven,
                } => match acts[param as usize] {
                    PAct::Fused(fp) => Inst::Gather {
                        dst,
                        param: fp,
                        idx,
                        proven,
                    },
                    PAct::Chain => return None,
                },
                Inst::Indexof { dst, param } => match acts[param as usize] {
                    PAct::Fused(fp) => Inst::Indexof { dst, param: fp },
                    // indexof of the vanished intermediate / producer
                    // output: the chain is elementwise-uniform, so the
                    // fused output's index space is the same.
                    PAct::Chain => Inst::Indexof { dst, param: o0_param },
                },
                Inst::ReadOut { dst, out } => {
                    if is_consumer {
                        Inst::ReadOut { dst, out }
                    } else {
                        Inst::Mov { dst, src: chain }
                    }
                }
                Inst::WriteOut { out, op, src } => {
                    if is_consumer {
                        Inst::WriteOut { out, op, src }
                    } else {
                        Inst::AssignLocal { dst: chain, op, src }
                    }
                }
                Inst::Jump { target } => Inst::Jump {
                    target: target + inst_off,
                },
                Inst::BranchIfFalse { cond, target } => Inst::BranchIfFalse {
                    cond,
                    target: target + inst_off,
                },
                other => other,
            };
            insts.push(mapped);
            spans.push(*span);
        }
        Some(())
    };

    let p_reg_off = 1u32;
    let c_reg_off = 1 + p_ir.regs.len() as u32;
    let p_inst_off = 1u32;
    let c_inst_off = 1 + p_ir.insts.len() as u32;
    append_stage(
        &mut insts, &mut spans, p_ir, &p_acts, p_reg_off, p_inst_off, false,
    )?;
    append_stage(&mut insts, &mut spans, c_ir, &c_acts, c_reg_off, c_inst_off, true)?;

    let mut body: Vec<Node> = vec![Node::Seq { start: 0, end: 1 }];
    body.extend(p_ir.body.iter().map(|n| shift_node(n, p_inst_off, p_reg_off)));
    body.extend(c_ir.body.iter().map(|n| shift_node(n, c_inst_off, c_reg_off)));

    let params: Vec<IrParam> = ins
        .iter()
        .map(|(p, _)| p.clone())
        .chain(outs.iter().map(|(p, _)| p.clone()))
        .collect();
    let bindings: Vec<(String, HandleArg)> = ins
        .iter()
        .chain(outs.iter())
        .map(|(p, h)| (p.name.clone(), *h))
        .collect();
    let out_names: Vec<String> = outs.iter().map(|(p, _)| p.name.clone()).collect();
    let outputs: Vec<u16> = (0..outs.len() as u16).map(|i| n_ins + i).collect();
    let kernel = IrKernel {
        name: name.to_owned(),
        is_reduce: false,
        reduce_op: None,
        params,
        outputs,
        acc_reg: None,
        regs,
        insts,
        spans,
        body,
        span: brook_lang::span::Span::synthetic(),
        uses_indexof: p_ir.uses_indexof || c_ir.uses_indexof,
    };
    Some((kernel, bindings, out_names))
}

/// Shifts every register mention of an instruction by `off`.
fn shift_regs(inst: &mut Inst, off: u32) {
    match inst {
        Inst::Nop | Inst::Jump { .. } | Inst::Ret | Inst::Fail { .. } => {}
        Inst::Const { dst, .. }
        | Inst::ReadElem { dst, .. }
        | Inst::ReadScalar { dst, .. }
        | Inst::ReadOut { dst, .. }
        | Inst::Indexof { dst, .. } => *dst += off,
        Inst::Mov { dst, src }
        | Inst::DeclInit { dst, src, .. }
        | Inst::AssignLocal { dst, src, .. }
        | Inst::Un { dst, src, .. }
        | Inst::CastInt { dst, src }
        | Inst::Swizzle { dst, src, .. }
        | Inst::SwizzleStore { dst, src, .. } => {
            *dst += off;
            *src += off;
        }
        Inst::Bin { dst, lhs, rhs, .. } => {
            *dst += off;
            *lhs += off;
            *rhs += off;
        }
        Inst::Construct { dst, args, .. } | Inst::Builtin { dst, args, .. } => {
            *dst += off;
            for a in args {
                *a += off;
            }
        }
        Inst::Select { dst, cond, a, b } => {
            *dst += off;
            *cond += off;
            *a += off;
            *b += off;
        }
        Inst::Gather { dst, idx, .. } => {
            *dst += off;
            for i in idx {
                *i += off;
            }
        }
        Inst::WriteOut { src, .. } => *src += off,
        Inst::BranchIfFalse { cond, .. } => *cond += off,
    }
}

/// Clones a region node shifting instruction indices and registers.
fn shift_node(n: &Node, inst_off: u32, reg_off: u32) -> Node {
    match n {
        Node::Seq { start, end } => Node::Seq {
            start: start + inst_off,
            end: end + inst_off,
        },
        Node::If {
            cond,
            branch_at,
            then,
            jump_at,
            els,
        } => Node::If {
            cond: cond + reg_off,
            branch_at: branch_at + inst_off,
            then: then.iter().map(|n| shift_node(n, inst_off, reg_off)).collect(),
            jump_at: jump_at.map(|j| j + inst_off),
            els: els.iter().map(|n| shift_node(n, inst_off, reg_off)).collect(),
        },
        Node::Loop(l) => Node::Loop(Box::new(LoopNode {
            kind: l.kind,
            bound: l.bound.clone(),
            span: l.span,
            header: l
                .header
                .iter()
                .map(|n| shift_node(n, inst_off, reg_off))
                .collect(),
            cond: l.cond + reg_off,
            exit_at: l.exit_at + inst_off,
            body: l.body.iter().map(|n| shift_node(n, inst_off, reg_off)).collect(),
            back_at: l.back_at + inst_off,
        })),
    }
}

/// The three-way stream-ownership resolution a recording needs: the
/// context's own streams, this graph's virtual streams, anything else
/// foreign. One implementation serves both record-time classification
/// and plan-time shape queries, so the two can never disagree.
fn lookup_stream_desc<'d>(
    ctx: &'d BrookContext,
    graph_id: u64,
    virtuals: &'d [StreamDesc],
    s: &Stream,
) -> Result<&'d StreamDesc> {
    if s.context_id == ctx.context_id {
        Ok(ctx.backend.stream_desc(s.index))
    } else if s.context_id == graph_id {
        virtuals
            .get(s.index)
            .ok_or_else(|| BrookError::Usage("unknown virtual stream".into()))
    } else {
        Err(BrookError::Usage("stream belongs to a different context".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fused chain is tier-compiled at the context's SIMD level, not
    /// the environment default.
    #[test]
    fn fused_chain_honors_the_context_simd_mode() {
        let mut ctx = BrookContext::cpu();
        ctx.simd_mode = brook_ir::simd::SimdMode::Off;
        let m = ctx
            .compile(
                "kernel void dbl(float a<>, out float o<>) { o = a * 2.0; }
                 kernel void inc(float a<>, out float o<>) { o = a + 1.0; }",
            )
            .expect("compile");
        let (a, out) = (ctx.stream(&[64]).expect("a"), ctx.stream(&[64]).expect("out"));
        let mut g = ctx.graph();
        let tmp = g.stream(&[64]).expect("virtual");
        g.run(&m, "dbl", &[Arg::Stream(&a), Arg::Stream(&tmp)])
            .expect("dbl");
        g.run(&m, "inc", &[Arg::Stream(&tmp), Arg::Stream(&out)])
            .expect("inc");
        assert_eq!(g.fuse_pass().1.len(), 1);
        let OpKind::Launch { module, kernel, .. } = &g.ops[0].kind else {
            panic!("the fused chain is a launch");
        };
        let plan = module.report.tier_plans.iter().find(|p| p.kernel == *kernel);
        let plan = plan.expect("fused kernel has a tier plan");
        assert!(
            plan.compiled && plan.detail.contains("simd scalar"),
            "{}",
            plan.detail
        );
    }
}
