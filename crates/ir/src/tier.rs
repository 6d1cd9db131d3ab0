//! Tier-2 closure-threaded BrookIR execution: lane-planned kernels
//! pre-compiled into chains of **monomorphized boxed closures** over
//! the lane engine's SoA slabs.
//!
//! The lane engine ([`crate::lanes`]) already amortizes instruction
//! dispatch over [`LANES`]-element blocks, but it still pays a full
//! decoded-`Op` `match` (operand kind, broadcast flags, width, builtin
//! selection) per op per block. Tier-2 resolves all of that **once at
//! `compile()` time**: every admitted op becomes a boxed `fn(&mut
//! Frame)` whose register offsets, widths, constants and operation are
//! baked into a monomorphized closure body — per-block execution is a
//! straight walk of indirect calls with zero decode and zero type
//! dispatch. On top of the threading, three compile-time
//! specializations remove work entirely:
//!
//! * a **peephole superword pass** fuses recurring adjacent dependent
//!   pairs — `mul`+`add` style arith chains, arith+compare,
//!   compare+select, elementwise-fetch+arith and gather+arith — into
//!   single fused closures that keep the intermediate in a machine
//!   register instead of round-tripping it through the slab;
//! * **uniform subchains are hoisted**: any op whose sources are
//!   dispatch-invariant (constants, scalar parameters, and values
//!   computed from them) and whose destination is written exactly once
//!   is moved into a *prologue* evaluated once per dispatch instead of
//!   once per block;
//! * **counted loops run on a static trip count**: the certified subset
//!   only has statically bounded `for` loops, with no `break`, so the
//!   paper's escape-time kernels are fixed-bound loops around an `if`.
//!   A `for` loop whose header's only per-block op is `cond = k < n`
//!   and whose body ends in `k += c`, with `n` and `c` hoisted uniform
//!   ints and no other op of the loop writing `k`, skips its loop
//!   control, and a *quiescent* one also stops at its first iteration
//!   that does nothing (below).
//!
//! # Counted loops
//!
//! On each entry into a counted loop, the block checks that `k` holds
//! the same `k₀` in every active lane, that `c > 0` and that
//! `k₀ + trip·c` fits in `i32`, with `trip = ⌈(n − k₀) / c⌉` (0 when
//! `k₀ ≥ n`) computed in `i64`. Any failed check runs the generic loop.
//! Otherwise the block charges `trip` back edges to every active lane's
//! iteration budget at once — a lane that would exceed it bails the
//! block to the lane engine, which faults verbatim — and runs the body
//! `trip` times without the header. The increment is skipped too unless
//! another op of the body reads `k`. On exit, `k` holds `k₀ + trip·c`
//! and `cond` is false in every live lane. This is exact: the header's
//! compare is true for exactly the first `trip` iterations, and no
//! intermediate counter value overflows.
//!
//! A counted loop takes the **quiescent exit** when its body is a
//! straight prefix, one `If` without `else`, and the increment, and no
//! prefix op or guard reads a slot written in the loop outside that
//! `then` unless the prefix wrote it earlier in the same iteration
//! (which rules out reading `k`). It stops at the first iteration in
//! which no live lane enters the `then`. Apart from `k`, such an
//! iteration writes only the prefix's slots, as functions of slots that
//! nothing outside the `then` changes. So the next iteration finds every slot its prefix
//! reads as this one did, computes the same values and again enters no
//! `then`: by induction every remaining iteration is the same no-op,
//! and stopping early is bit-exact.
//!
//! # The fallback guarantee
//!
//! Certification-wise Tier-2 sits strictly *on top of* the lane
//! engine's guarantee and adds no new trusted surface:
//!
//! 1. Admission ([`compile_simd`]) starts from a lane-planner-admitted
//!    kernel (so slab layout, def-before-use and static semantics are
//!    already established) and additionally rejects any op the closure
//!    model does not cover — cross-component reductions and statically
//!    planned fault sites. Rejections are recorded per kernel in the
//!    module's `ComplianceReport` (`tier_plans`) and the backends run
//!    the lane engine instead.
//! 2. At run time any unmodeled binding shape falls back to the lane
//!    engine for the whole range, and any faulting block (iteration
//!    budget) discards its staged slabs and re-runs **exactly that
//!    block** through the lane engine — which itself re-runs it through
//!    the scalar interpreter. Results, partial writes, fault messages,
//!    element attribution and source spans are therefore bit-exact with
//!    the scalar path by construction, through the tier → lanes →
//!    scalar chain.

use crate::interp::{domain_extents, input_index, Binding, ExecError, MAX_ITERATIONS};
use crate::lanes::{
    self, BOp, COp, FOp, IOp, LaneKernel, LaneProgram, LaneSlabs, LaneTy, Mask, Op, FULL, LANES,
};
use crate::simd::{self, SimdLevel};
use crate::{IrKernel, IrProgram, LoopKind, LoopNode, Node};
use glsl_es::math::{Bin, Un};
use glsl_es::Value;
use std::fmt;
use std::ops::Range;

// ---------------------------------------------------------------------------
// The execution frame and the step type.
// ---------------------------------------------------------------------------

/// The per-dispatch execution state a compiled step runs against: the
/// slab arenas plus the per-block access tables the driver refreshes
/// between blocks. Mirrors the lane engine's `Engine` exactly — the
/// slabs and every per-launch table are borrowed from the caller-owned
/// [`LaneSlabs`], so a reused slab frame makes a launch allocation-free.
pub(crate) struct Frame<'a> {
    bindings: &'a [Binding<'a>],
    /// `(param, width)` per elementwise slot (the lane plan's
    /// `elem_params`): a slot's data is its `Binding::Elem`.
    elem_params: &'a [(u16, u8)],
    f: &'a mut [f32],
    i: &'a mut [i32],
    b: &'a mut [Mask],
    /// The active mask for the straight-line segment being executed.
    m: Mask,
    /// Lanes retired by a kernel-level `return` in this block.
    dead: Mask,
    /// Per-lane loop back-edge counts (the scalar budget, per lane).
    iters: [u32; LANES],
    /// Per elementwise slot: the block's first element when the block
    /// is contiguous (width 1, all [`LANES`] lanes, elements
    /// `o..o + LANES` in range) — fetch sites then copy a slice and
    /// `elem_off` is stale. `None` means `elem_off` holds the block.
    contig: &'a mut [Option<usize>],
    elem_off: &'a mut [[usize; LANES]],
    scalar_f: &'a [[f32; 4]],
    scalar_i: &'a [i32],
    idx_vals: &'a mut [[[f32; 2]; LANES]],
    /// Maximum `indexof` component values of this launch's domain
    /// ([`crate::eval::indexof_comp_max`]) — the runtime half of
    /// [`crate::ProvenIdx::IndexofRel`] clamp elision.
    comp_max: [i64; 2],
}

impl<'a> Frame<'a> {
    /// The data of elementwise slot `slot`.
    #[inline(always)]
    fn elem(&self, slot: usize) -> &'a [f32] {
        match &self.bindings[self.elem_params[slot].0 as usize] {
            Binding::Elem { data, .. } => data,
            _ => unreachable!("elementwise binding validated at dispatch"),
        }
    }
}

/// One compiled execution step: a monomorphized closure with all
/// operand offsets, widths and the operation baked in.
type Step = Box<dyn for<'f> Fn(&mut Frame<'f>) + Send + Sync>;

macro_rules! tier_loop {
    ($m:expr, $l:ident, $body:block) => {
        if $m == FULL {
            for $l in 0..LANES {
                $body
            }
        } else {
            let mut mm = $m;
            while mm != 0 {
                let $l = mm.trailing_zeros() as usize;
                $body
                mm &= mm - 1;
            }
        }
    };
}

// ---------------------------------------------------------------------------
// The compiled form.
// ---------------------------------------------------------------------------

/// The closure-threaded control tree, mirroring the kernel's structured
/// [`Node`] regions with conditions pre-resolved to bool-slab offsets.
enum TNode {
    /// A run of straight-line steps sharing one execution mask.
    Straight(Vec<Step>),
    /// Kernel-level `return`: retire the active lanes.
    Ret,
    If {
        cond: usize,
        then: Vec<TNode>,
        els: Vec<TNode>,
    },
    Loop {
        dowhile: bool,
        cond: usize,
        header: Vec<TNode>,
        body: Vec<TNode>,
        /// The static-trip-count plan of a qualifying `for` loop; its
        /// body then ends in the counter increment as a node of its own.
        counted: Option<Counted>,
    },
}

/// How a counted `for` loop runs without its header (see the module
/// docs): `trip = ⌈(n − k₀) / c⌉` iterations of the body, with the
/// per-iteration loop control replaced by one budget charge and one
/// final write of `k`.
struct Counted {
    /// `i32`-slab offset of the counter `k`.
    k: usize,
    /// `i32`-slab offsets of the hoisted uniform bound `n` and step `c`.
    n: usize,
    c: usize,
    /// Whether an op of the body other than the increment reads `k`:
    /// the increment node then runs every iteration; otherwise it is
    /// skipped and `k` is written once on exit.
    k_read: bool,
    /// Body index of the guard `If` when the loop takes the quiescent
    /// exit: the loop stops at the first iteration no lane enters it.
    guard: Option<usize>,
}

/// A Tier-2-compiled kernel: the once-per-dispatch uniform prologue
/// plus the per-block closure chain. Produced by [`compile_simd`]; executed
/// by [`run_kernel_range`].
pub struct TierKernel {
    /// Hoisted uniform steps, run once per dispatch at full mask.
    prologue: Vec<Step>,
    /// The per-block closure-threaded control tree.
    chain: Vec<TNode>,
    /// Decoded lane ops the kernel compiled from.
    ops_in: usize,
    /// Per-block steps after fusion and hoisting.
    steps: usize,
    /// Adjacent pairs fused into single closures.
    fused: usize,
    /// Uniform ops hoisted into the prologue.
    hoisted: usize,
    /// `for` loops run on a static trip count.
    counted: usize,
    /// Counted loops that also stop at their first no-op iteration.
    quiescent: usize,
    /// The explicit-SIMD level the per-block closures dispatch to
    /// (`Scalar` means every step kept its verbatim scalar loop body).
    level: SimdLevel,
}

impl TierKernel {
    /// A one-line human-readable compilation summary for the
    /// compliance report.
    #[must_use]
    pub fn detail(&self) -> String {
        format!(
            "closure-threaded: {} lane ops -> {} block steps ({} fused pairs, {} hoisted uniform, simd {}), \
             {} counted loops ({} quiescent-exit)",
            self.ops_in, self.steps, self.fused, self.hoisted, self.level, self.counted, self.quiescent
        )
    }

    /// Adjacent op pairs the superword pass fused.
    #[must_use]
    pub fn fused_pairs(&self) -> usize {
        self.fused
    }

    /// Uniform ops hoisted out of the per-block path.
    #[must_use]
    pub fn hoisted_uniform(&self) -> usize {
        self.hoisted
    }

    /// The explicit-SIMD level the per-block closures were compiled
    /// for (already capped at what the host supports).
    #[must_use]
    pub fn simd_level(&self) -> SimdLevel {
        self.level
    }
}

impl fmt::Debug for TierKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TierKernel")
            .field("ops_in", &self.ops_in)
            .field("steps", &self.steps)
            .field("fused", &self.fused)
            .field("hoisted", &self.hoisted)
            .field("counted", &self.counted)
            .field("quiescent", &self.quiescent)
            .field("level", &self.level)
            .finish_non_exhaustive()
    }
}

/// Tier-2 plans for a whole module, parallel to `IrProgram::kernels`.
/// Kernels the compiler rejected carry the reason; backends fall back
/// to the lane engine (or scalar interpreter) for them.
#[derive(Debug, Default)]
pub struct TierProgram {
    /// `(kernel name, compiled chain or rejection reason)`.
    pub kernels: Vec<(String, Result<TierKernel, String>)>,
}

impl TierProgram {
    /// Tier-compiles every lane-admitted kernel of a lowered program at
    /// SIMD `level`. Lane-rejected kernels are recorded as tier-rejected
    /// too (Tier-2 builds on the lane plan's slab layout and admission
    /// analysis). `facts` are the analyzer's (`brook_cert::absint`),
    /// parallel to `ir.kernels` (an empty or short slice means "no
    /// facts"); they only expand admission — e.g. a statically planned
    /// fault site the analyzer proved unreachable no longer blocks tier
    /// compilation. The level is capped at what the host supports, so a
    /// requested `Avx2` silently degrades on an SSE2-only machine.
    #[must_use]
    pub fn compile_program_simd(
        ir: &IrProgram,
        lanes: &LaneProgram,
        facts: &[crate::KernelFacts],
        level: SimdLevel,
    ) -> TierProgram {
        TierProgram {
            kernels: ir
                .kernels
                .iter()
                .enumerate()
                .map(|(i, k)| {
                    let plan = match lanes.kernel(&k.name) {
                        Some(lk) => compile_simd(lk, k, facts.get(i), level),
                        None => Err(match lanes.decision(&k.name) {
                            Some(Err(e)) => format!("lane planner rejected the kernel: {e}"),
                            _ => "lane planner rejected the kernel".into(),
                        }),
                    };
                    (k.name.clone(), plan)
                })
                .collect(),
        }
    }

    /// The compiled chain for `name`, when admission succeeded.
    #[must_use]
    pub fn kernel(&self, name: &str) -> Option<&TierKernel> {
        self.kernels
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, p)| p.as_ref().ok())
    }

    /// The compilation decision for `name`: `Ok(())` for Tier-2
    /// execution, `Err(reason)` for lane-engine fallback.
    #[must_use]
    pub fn decision(&self, name: &str) -> Option<Result<(), &str>> {
        self.kernels
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| p.as_ref().map(|_| ()).map_err(|e| e.as_str()))
    }
}

// ---------------------------------------------------------------------------
// Uniform hoisting analysis.
// ---------------------------------------------------------------------------

/// One component-granular slab: an `f32` component slab, an `i32` slab
/// or a bool mask word. All lane-op `f`/`i` offsets are
/// [`LANES`]-aligned by construction, so component indices are exact.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    F(usize),
    I(usize),
    B(usize),
}

/// Enumerates the component slabs `op` reads and writes.
#[allow(clippy::too_many_lines)]
fn op_slots(op: &Op, reads: &mut Vec<Slot>, writes: &mut Vec<Slot>) {
    reads.clear();
    writes.clear();
    let fc = |o: u32| o as usize / LANES;
    let ic = |o: u32| o as usize / LANES;
    match op {
        Op::ConstF { dst, w, .. } => {
            for c in 0..*w as usize {
                writes.push(Slot::F(fc(*dst) + c));
            }
        }
        Op::ConstI { dst, .. } => writes.push(Slot::I(ic(*dst))),
        Op::ConstB { dst, .. } => writes.push(Slot::B(*dst as usize)),
        Op::CopyF { dst, src, n } => {
            for c in 0..*n as usize {
                reads.push(Slot::F(fc(*src) + c));
                writes.push(Slot::F(fc(*dst) + c));
            }
        }
        Op::CopyI { dst, src } => {
            reads.push(Slot::I(ic(*src)));
            writes.push(Slot::I(ic(*dst)));
        }
        Op::CopyB { dst, src } => {
            reads.push(Slot::B(*src as usize));
            writes.push(Slot::B(*dst as usize));
        }
        Op::SplatF { dst, w, src } => {
            reads.push(Slot::F(fc(*src)));
            for c in 0..*w as usize {
                writes.push(Slot::F(fc(*dst) + c));
            }
        }
        Op::SplatI { dst, w, src } => {
            reads.push(Slot::I(ic(*src)));
            for c in 0..*w as usize {
                writes.push(Slot::F(fc(*dst) + c));
            }
        }
        Op::ItoF { dst, src } => {
            reads.push(Slot::I(ic(*src)));
            writes.push(Slot::F(fc(*dst)));
        }
        Op::FtoI { dst, src } => {
            reads.push(Slot::F(fc(*src)));
            writes.push(Slot::I(ic(*dst)));
        }
        Op::ArithF {
            dst, w, a, ab, b, bb, ..
        }
        | Op::Map2 {
            dst, w, a, ab, b, bb, ..
        } => {
            for c in 0..if *ab { 1 } else { *w as usize } {
                reads.push(Slot::F(fc(*a) + c));
            }
            for c in 0..if *bb { 1 } else { *w as usize } {
                reads.push(Slot::F(fc(*b) + c));
            }
            for c in 0..*w as usize {
                writes.push(Slot::F(fc(*dst) + c));
            }
        }
        Op::ArithI { dst, a, b, .. } => {
            reads.push(Slot::I(ic(*a)));
            reads.push(Slot::I(ic(*b)));
            writes.push(Slot::I(ic(*dst)));
        }
        Op::CmpF { dst, a, b, .. } => {
            reads.push(Slot::F(fc(*a)));
            reads.push(Slot::F(fc(*b)));
            writes.push(Slot::B(*dst as usize));
        }
        Op::CmpI { dst, a, b, .. } => {
            reads.push(Slot::I(ic(*a)));
            reads.push(Slot::I(ic(*b)));
            writes.push(Slot::B(*dst as usize));
        }
        Op::LogicB { dst, a, b, .. } => {
            reads.push(Slot::B(*a as usize));
            reads.push(Slot::B(*b as usize));
            writes.push(Slot::B(*dst as usize));
        }
        Op::NotB { dst, src } => {
            reads.push(Slot::B(*src as usize));
            writes.push(Slot::B(*dst as usize));
        }
        Op::NegF { dst, src, w } | Op::Map1 { dst, src, w, .. } => {
            for c in 0..*w as usize {
                reads.push(Slot::F(fc(*src) + c));
                writes.push(Slot::F(fc(*dst) + c));
            }
        }
        Op::NegI { dst, src } => {
            reads.push(Slot::I(ic(*src)));
            writes.push(Slot::I(ic(*dst)));
        }
        Op::Dot { dst, a, b, w } => {
            for c in 0..*w as usize {
                reads.push(Slot::F(fc(*a) + c));
                reads.push(Slot::F(fc(*b) + c));
            }
            writes.push(Slot::F(fc(*dst)));
        }
        Op::Length { dst, src, w } => {
            for c in 0..*w as usize {
                reads.push(Slot::F(fc(*src) + c));
            }
            writes.push(Slot::F(fc(*dst)));
        }
        Op::Normalize { dst, src, w } => {
            for c in 0..*w as usize {
                reads.push(Slot::F(fc(*src) + c));
                writes.push(Slot::F(fc(*dst) + c));
            }
        }
        Op::SelF { dst, cond, a, b, w } => {
            reads.push(Slot::B(*cond as usize));
            for c in 0..*w as usize {
                reads.push(Slot::F(fc(*a) + c));
                reads.push(Slot::F(fc(*b) + c));
                writes.push(Slot::F(fc(*dst) + c));
            }
        }
        Op::SelI { dst, cond, a, b } => {
            reads.push(Slot::B(*cond as usize));
            reads.push(Slot::I(ic(*a)));
            reads.push(Slot::I(ic(*b)));
            writes.push(Slot::I(ic(*dst)));
        }
        Op::SelB { dst, cond, a, b } => {
            reads.push(Slot::B(*cond as usize));
            reads.push(Slot::B(*a as usize));
            reads.push(Slot::B(*b as usize));
            writes.push(Slot::B(*dst as usize));
        }
        Op::ReadElem { dst, w, .. } => {
            for c in 0..*w as usize {
                writes.push(Slot::F(fc(*dst) + c));
            }
        }
        Op::ReadScalarF { dst, w, .. } => {
            for c in 0..*w as usize {
                writes.push(Slot::F(fc(*dst) + c));
            }
        }
        Op::ReadScalarI { dst, .. } => writes.push(Slot::I(ic(*dst))),
        Op::Gather { dst, w, idx, .. } => {
            for (off, is_int) in idx {
                reads.push(if *is_int {
                    Slot::I(ic(*off))
                } else {
                    Slot::F(fc(*off))
                });
            }
            for c in 0..*w as usize {
                writes.push(Slot::F(fc(*dst) + c));
            }
        }
        Op::Indexof { dst, .. } => {
            writes.push(Slot::F(fc(*dst)));
            writes.push(Slot::F(fc(*dst) + 1));
        }
        Op::Ret | Op::Bail => {}
    }
}

/// Whether `op`'s value is dispatch-invariant when all its slab sources
/// are: pure slab-to-slab computation or scalar-parameter reads.
/// Element-dependent reads (`ReadElem`, `Gather`, `Indexof`) and
/// control ops are excluded.
fn hoistable_kind(op: &Op) -> bool {
    matches!(
        op,
        Op::ConstF { .. }
            | Op::ConstI { .. }
            | Op::ConstB { .. }
            | Op::CopyF { .. }
            | Op::CopyI { .. }
            | Op::CopyB { .. }
            | Op::SplatF { .. }
            | Op::SplatI { .. }
            | Op::ItoF { .. }
            | Op::FtoI { .. }
            | Op::ArithF { .. }
            | Op::ArithI { .. }
            | Op::CmpF { .. }
            | Op::CmpI { .. }
            | Op::LogicB { .. }
            | Op::NotB { .. }
            | Op::NegF { .. }
            | Op::NegI { .. }
            | Op::Map1 { .. }
            | Op::Map2 { .. }
            | Op::SelF { .. }
            | Op::SelI { .. }
            | Op::SelB { .. }
            | Op::ReadScalarF { .. }
            | Op::ReadScalarI { .. }
    )
}

/// Finds the ops whose results are uniform across the whole dispatch:
/// hoistable-kind ops all of whose sources are themselves uniform and
/// whose destination slabs are written **exactly once** in the entire
/// program (so the prologue's one evaluation is the only definition)
/// and are not output staging (which the per-block preload rewrites).
///
/// Returns the per-op hoist flags plus the prologue emission order —
/// a topological order by construction, because an op is only marked
/// after every producer of its sources has been appended.
fn hoist_plan(lane: &LaneKernel) -> (Vec<bool>, Vec<usize>) {
    let nf = lane.f_len / LANES;
    let ni = lane.i_len / LANES;
    let nb = lane.b_len;
    let mut staged = vec![false; nf];
    for (slot, off) in lane.out_off.iter().enumerate() {
        for c in 0..lane.out_w[slot] as usize {
            staged[*off as usize / LANES + c] = true;
        }
    }
    let mut wc_f = vec![0u32; nf];
    let mut wc_i = vec![0u32; ni];
    let mut wc_b = vec![0u32; nb];
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for op in &lane.ops {
        op_slots(op, &mut reads, &mut writes);
        for s in &writes {
            match s {
                Slot::F(c) => wc_f[*c] += 1,
                Slot::I(c) => wc_i[*c] += 1,
                Slot::B(c) => wc_b[*c] += 1,
            }
        }
    }
    let mut uf = vec![false; nf];
    let mut ui = vec![false; ni];
    let mut ub = vec![false; nb];
    let mut hoisted = vec![false; lane.ops.len()];
    let mut order = Vec::new();
    loop {
        let mut changed = false;
        for (i, op) in lane.ops.iter().enumerate() {
            if hoisted[i] || !hoistable_kind(op) {
                continue;
            }
            op_slots(op, &mut reads, &mut writes);
            let srcs_uniform = reads.iter().all(|s| match s {
                Slot::F(c) => uf[*c],
                Slot::I(c) => ui[*c],
                Slot::B(c) => ub[*c],
            });
            let dsts_ok = writes.iter().all(|s| match s {
                Slot::F(c) => wc_f[*c] == 1 && !staged[*c],
                Slot::I(c) => wc_i[*c] == 1,
                Slot::B(c) => wc_b[*c] == 1,
            });
            if !(srcs_uniform && dsts_ok) {
                continue;
            }
            hoisted[i] = true;
            for s in &writes {
                match s {
                    Slot::F(c) => uf[*c] = true,
                    Slot::I(c) => ui[*c] = true,
                    Slot::B(c) => ub[*c] = true,
                }
            }
            order.push(i);
            changed = true;
        }
        if !changed {
            break;
        }
    }
    (hoisted, order)
}

// ---------------------------------------------------------------------------
// Monomorphization: operation-selection macros and generic builders.
// ---------------------------------------------------------------------------

macro_rules! with_fop {
    ($op:expr, $g:ident, $e:expr) => {
        match $op {
            FOp::Add => {
                let $g = |a: f32, b: f32| a + b;
                $e
            }
            FOp::Sub => {
                let $g = |a: f32, b: f32| a - b;
                $e
            }
            FOp::Mul => {
                let $g = |a: f32, b: f32| a * b;
                $e
            }
            FOp::Div => {
                let $g = |a: f32, b: f32| a / b;
                $e
            }
            FOp::Rem => {
                let $g = |a: f32, b: f32| a - b * (a / b).floor();
                $e
            }
        }
    };
}

macro_rules! with_iop {
    ($op:expr, $g:ident, $e:expr) => {
        match $op {
            IOp::Add => {
                let $g = |a: i32, b: i32| a.wrapping_add(b);
                $e
            }
            IOp::Sub => {
                let $g = |a: i32, b: i32| a.wrapping_sub(b);
                $e
            }
            IOp::Mul => {
                let $g = |a: i32, b: i32| a.wrapping_mul(b);
                $e
            }
            IOp::Div => {
                let $g = |a: i32, b: i32| if b == 0 { 0 } else { a.wrapping_div(b) };
                $e
            }
            IOp::Rem => {
                let $g = |a: i32, b: i32| if b == 0 { 0 } else { a.wrapping_rem(b) };
                $e
            }
        }
    };
}

/// Untyped comparator closures: the generic call site fixes the operand
/// type (`f32` or `i32`).
macro_rules! with_cop {
    ($op:expr, $g:ident, $e:expr) => {
        match $op {
            COp::Lt => {
                let $g = |a, b| a < b;
                $e
            }
            COp::Le => {
                let $g = |a, b| a <= b;
                $e
            }
            COp::Gt => {
                let $g = |a, b| a > b;
                $e
            }
            COp::Ge => {
                let $g = |a, b| a >= b;
                $e
            }
            COp::Eq => {
                let $g = |a, b| a == b;
                $e
            }
            COp::Ne => {
                let $g = |a, b| a != b;
                $e
            }
        }
    };
}

/// Componentwise float zip (`ArithF` / `Map2`) with pre-resolved
/// broadcast handling.
fn zip2_step<G>(g: G, dst: usize, w: usize, a: usize, ab: bool, b: usize, bb: bool) -> Step
where
    G: Fn(f32, f32) -> f32 + Send + Sync + 'static,
{
    Box::new(move |fr| {
        let m = fr.m;
        for c in 0..w {
            let d = dst + c * LANES;
            let x = a + if ab { 0 } else { c * LANES };
            let y = b + if bb { 0 } else { c * LANES };
            tier_loop!(m, l, {
                fr.f[d + l] = g(fr.f[x + l], fr.f[y + l]);
            });
        }
    })
}

fn map1_step<G>(g: G, dst: usize, src: usize, w: usize) -> Step
where
    G: Fn(f32) -> f32 + Send + Sync + 'static,
{
    Box::new(move |fr| {
        let m = fr.m;
        for c in 0..w {
            let d = dst + c * LANES;
            let s = src + c * LANES;
            tier_loop!(m, l, {
                fr.f[d + l] = g(fr.f[s + l]);
            });
        }
    })
}

fn arithi_step<G>(g: G, dst: usize, a: usize, b: usize) -> Step
where
    G: Fn(i32, i32) -> i32 + Send + Sync + 'static,
{
    Box::new(move |fr| {
        let m = fr.m;
        tier_loop!(m, l, {
            fr.i[dst + l] = g(fr.i[a + l], fr.i[b + l]);
        });
    })
}

fn cmpf_step<G>(g: G, dst: usize, a: usize, b: usize) -> Step
where
    G: Fn(f32, f32) -> bool + Send + Sync + 'static,
{
    Box::new(move |fr| {
        let m = fr.m;
        let mut bits: Mask = 0;
        tier_loop!(m, l, {
            if g(fr.f[a + l], fr.f[b + l]) {
                bits |= 1 << l;
            }
        });
        fr.b[dst] = (fr.b[dst] & !m) | bits;
    })
}

fn cmpi_step<G>(g: G, dst: usize, a: usize, b: usize) -> Step
where
    G: Fn(i32, i32) -> bool + Send + Sync + 'static,
{
    Box::new(move |fr| {
        let m = fr.m;
        let mut bits: Mask = 0;
        tier_loop!(m, l, {
            if g(fr.i[a + l], fr.i[b + l]) {
                bits |= 1 << l;
            }
        });
        fr.b[dst] = (fr.b[dst] & !m) | bits;
    })
}

fn logicb_step<G>(g: G, dst: usize, a: usize, b: usize) -> Step
where
    G: Fn(Mask, Mask) -> Mask + Send + Sync + 'static,
{
    Box::new(move |fr| {
        let bits = g(fr.b[a], fr.b[b]);
        fr.b[dst] = (fr.b[dst] & !fr.m) | (bits & fr.m);
    })
}

// ---------------------------------------------------------------------------
// Fused superword closures.
// ---------------------------------------------------------------------------

/// Operand layout of a fused zip→zip pair: op2 consumes op1's result
/// in-register (`ta`/`tb`) instead of reloading the slab.
#[derive(Clone, Copy)]
struct ZipZip {
    w: usize,
    a1: usize,
    ab1: bool,
    b1: usize,
    bb1: bool,
    d1: usize,
    a2: usize,
    ab2: bool,
    b2: usize,
    bb2: bool,
    d2: usize,
    ta: bool,
    tb: bool,
}

fn fuse_ff<G1, G2>(g1: G1, g2: G2, p: ZipZip) -> Step
where
    G1: Fn(f32, f32) -> f32 + Send + Sync + 'static,
    G2: Fn(f32, f32) -> f32 + Send + Sync + 'static,
{
    Box::new(move |fr| {
        let m = fr.m;
        for c in 0..p.w {
            let cl = c * LANES;
            let x1 = p.a1 + if p.ab1 { 0 } else { cl };
            let y1 = p.b1 + if p.bb1 { 0 } else { cl };
            let d1 = p.d1 + cl;
            let x2 = p.a2 + if p.ab2 { 0 } else { cl };
            let y2 = p.b2 + if p.bb2 { 0 } else { cl };
            let d2 = p.d2 + cl;
            tier_loop!(m, l, {
                let t = g1(fr.f[x1 + l], fr.f[y1 + l]);
                fr.f[d1 + l] = t;
                let xa = if p.ta { t } else { fr.f[x2 + l] };
                let xb = if p.tb { t } else { fr.f[y2 + l] };
                fr.f[d2 + l] = g2(xa, xb);
            });
        }
    })
}

/// Fused scalar arith→compare: the arith result feeds the comparison
/// in-register and the bool slab is merged once.
#[derive(Clone, Copy)]
struct FCmp {
    a1: usize,
    b1: usize,
    d1: usize,
    a2: usize,
    b2: usize,
    d2: usize,
    ta: bool,
    tb: bool,
}

fn fuse_fc<G1, G2>(g1: G1, g2: G2, p: FCmp) -> Step
where
    G1: Fn(f32, f32) -> f32 + Send + Sync + 'static,
    G2: Fn(f32, f32) -> bool + Send + Sync + 'static,
{
    Box::new(move |fr| {
        let m = fr.m;
        let mut bits: Mask = 0;
        tier_loop!(m, l, {
            let t = g1(fr.f[p.a1 + l], fr.f[p.b1 + l]);
            fr.f[p.d1 + l] = t;
            let xa = if p.ta { t } else { fr.f[p.a2 + l] };
            let xb = if p.tb { t } else { fr.f[p.b2 + l] };
            if g2(xa, xb) {
                bits |= 1 << l;
            }
        });
        fr.b[p.d2] = (fr.b[p.d2] & !m) | bits;
    })
}

/// Fused compare→select: the per-lane condition drives the select
/// directly, skipping the bool-slab round trip.
#[derive(Clone, Copy)]
struct CSel {
    a1: usize,
    b1: usize,
    d1: usize,
    a2: usize,
    b2: usize,
    d2: usize,
    w: usize,
}

fn fuse_cs<G1>(g1: G1, p: CSel) -> Step
where
    G1: Fn(f32, f32) -> bool + Send + Sync + 'static,
{
    Box::new(move |fr| {
        let m = fr.m;
        let mut bits: Mask = 0;
        tier_loop!(m, l, {
            let take = g1(fr.f[p.a1 + l], fr.f[p.b1 + l]);
            let src = if take {
                bits |= 1 << l;
                p.a2
            } else {
                p.b2
            };
            for c in 0..p.w {
                fr.f[p.d2 + c * LANES + l] = fr.f[src + c * LANES + l];
            }
        });
        fr.b[p.d1] = (fr.b[p.d1] & !m) | bits;
    })
}

/// Fused elementwise-fetch→arith: the loaded element feeds the arith
/// in-register.
#[derive(Clone, Copy)]
struct EZip {
    slot: usize,
    d1: usize,
    w: usize,
    a2: usize,
    ab2: bool,
    b2: usize,
    bb2: bool,
    d2: usize,
    ta: bool,
    tb: bool,
}

fn fuse_ra<G2>(g2: G2, p: EZip) -> Step
where
    G2: Fn(f32, f32) -> f32 + Send + Sync + 'static,
{
    Box::new(move |fr| {
        let m = fr.m;
        let data = fr.elem(p.slot);
        if let Some(o) = fr.contig[p.slot] {
            let src = &data[o..o + LANES];
            let x2 = p.a2;
            let y2 = p.b2;
            tier_loop!(m, l, {
                let t = src[l];
                fr.f[p.d1 + l] = t;
                let xa = if p.ta { t } else { fr.f[x2 + l] };
                let xb = if p.tb { t } else { fr.f[y2 + l] };
                fr.f[p.d2 + l] = g2(xa, xb);
            });
            return;
        }
        let off = fr.elem_off[p.slot];
        for c in 0..p.w {
            let cl = c * LANES;
            let d1 = p.d1 + cl;
            let x2 = p.a2 + if p.ab2 { 0 } else { cl };
            let y2 = p.b2 + if p.bb2 { 0 } else { cl };
            let d2 = p.d2 + cl;
            tier_loop!(m, l, {
                let t = data[off[l] + c];
                fr.f[d1 + l] = t;
                let xa = if p.ta { t } else { fr.f[x2 + l] };
                let xb = if p.tb { t } else { fr.f[y2 + l] };
                fr.f[d2 + l] = g2(xa, xb);
            });
        }
    })
}

/// Fused gather→arith (both scalar-width): the gathered value feeds
/// the arith in-register.
#[derive(Clone, Copy)]
struct GZip {
    param: usize,
    d1: usize,
    a2: usize,
    b2: usize,
    d2: usize,
    ta: bool,
    tb: bool,
}

fn fuse_ga<G2>(g2: G2, p: GZip, idx: Vec<(u32, bool)>, proven: Option<Vec<crate::ProvenIdx>>) -> Step
where
    G2: Fn(f32, f32) -> f32 + Send + Sync + 'static,
{
    if let Some((o0, o1)) = gather_ff(&idx) {
        // The hot specialization: two float indices into a 2-D table
        // (sgemm's a[y][k]/b[k][x], conv3x3's img[y±1][x±1]) — clamp
        // both coordinates inline, no dynamic index walk per lane.
        return Box::new(move |fr| {
            let m = fr.m;
            let bindings = fr.bindings;
            let Binding::Gather { data, shape, width } = &bindings[p.param] else {
                unreachable!("gather binding validated at dispatch");
            };
            if let [d0, d1] = shape[..] {
                let wd = *width as usize;
                if proven
                    .as_ref()
                    .is_some_and(|pr| crate::eval::proven_fits_dyn(pr, shape, fr.comp_max))
                {
                    // Analyzer-proven in-bounds: the fused inner loop
                    // (sgemm's hot path) runs clamp-free.
                    tier_loop!(m, l, {
                        let iy = (fr.f[o0 + l] + 0.5).floor() as i64;
                        let ix = (fr.f[o1 + l] + 0.5).floor() as i64;
                        debug_assert!(
                            iy >= 0 && (iy as usize) < d0 && ix >= 0 && (ix as usize) < d1,
                            "unsound clamp elision: ({iy},{ix}) outside {d0}x{d1} — analyzer bug"
                        );
                        let t = data[(iy as usize * d1 + ix as usize) * wd];
                        fr.f[p.d1 + l] = t;
                        let xa = if p.ta { t } else { fr.f[p.a2 + l] };
                        let xb = if p.tb { t } else { fr.f[p.b2 + l] };
                        fr.f[p.d2 + l] = g2(xa, xb);
                    });
                } else {
                    tier_loop!(m, l, {
                        let iy = (fr.f[o0 + l] + 0.5).floor() as i64;
                        let ix = (fr.f[o1 + l] + 0.5).floor() as i64;
                        let linear =
                            iy.clamp(0, d0 as i64 - 1) as usize * d1 + ix.clamp(0, d1 as i64 - 1) as usize;
                        let t = data[linear * wd];
                        fr.f[p.d1 + l] = t;
                        let xa = if p.ta { t } else { fr.f[p.a2 + l] };
                        let xb = if p.tb { t } else { fr.f[p.b2 + l] };
                        fr.f[p.d2 + l] = g2(xa, xb);
                    });
                }
            } else {
                let idx = [(o0 as u32, false), (o1 as u32, false)];
                tier_loop!(m, l, {
                    let t = data[gather_linear(fr, &idx, shape, l) * *width as usize];
                    fr.f[p.d1 + l] = t;
                    let xa = if p.ta { t } else { fr.f[p.a2 + l] };
                    let xb = if p.tb { t } else { fr.f[p.b2 + l] };
                    fr.f[p.d2 + l] = g2(xa, xb);
                });
            }
        });
    }
    Box::new(move |fr| {
        let m = fr.m;
        let bindings = fr.bindings;
        let Binding::Gather { data, shape, width } = &bindings[p.param] else {
            unreachable!("gather binding validated at dispatch");
        };
        tier_loop!(m, l, {
            let t = data[gather_linear(fr, &idx, shape, l) * *width as usize];
            fr.f[p.d1 + l] = t;
            let xa = if p.ta { t } else { fr.f[p.a2 + l] };
            let xb = if p.tb { t } else { fr.f[p.b2 + l] };
            fr.f[p.d2 + l] = g2(xa, xb);
        });
    })
}

/// The statically-known two-float-index gather pattern (`t[y][x]` with
/// float coordinates — every gather in the app suite). Specialized
/// closures avoid the per-lane dynamic index walk entirely.
fn gather_ff(idx: &[(u32, bool)]) -> Option<(usize, usize)> {
    match idx {
        [(o0, false), (o1, false)] => Some((*o0 as usize, *o1 as usize)),
        _ => None,
    }
}

/// The scalar gather index computation: per-dimension clamp when the
/// index arity matches the shape, linear clamp otherwise. Float
/// indices round like the scalar path (`(v + 0.5).floor()`).
#[inline(always)]
fn gather_linear(fr: &Frame<'_>, idx: &[(u32, bool)], shape: &[usize], l: usize) -> usize {
    if idx.len() == shape.len() {
        let mut linear = 0usize;
        for (k, (off, is_int)) in idx.iter().enumerate() {
            let iv: i64 = if *is_int {
                i64::from(fr.i[*off as usize + l])
            } else {
                (fr.f[*off as usize + l] + 0.5).floor() as i64
            };
            let dim = shape[k];
            linear = linear * dim + iv.clamp(0, dim as i64 - 1) as usize;
        }
        linear
    } else {
        let len: usize = shape.iter().product();
        let first: i64 = match idx.first() {
            Some((off, true)) => i64::from(fr.i[*off as usize + l]),
            Some((off, false)) => (fr.f[*off as usize + l] + 0.5).floor() as i64,
            None => 0,
        };
        first.clamp(0, len as i64 - 1) as usize
    }
}

/// [`gather_linear`] with the per-dimension clamp elided — only called
/// after [`crate::eval::proven_fits_dyn`] accepted the frame's shape.
#[inline(always)]
fn gather_linear_unclamped(fr: &Frame<'_>, idx: &[(u32, bool)], shape: &[usize], l: usize) -> usize {
    let mut linear = 0usize;
    for (k, (off, is_int)) in idx.iter().enumerate() {
        let iv: i64 = if *is_int {
            i64::from(fr.i[*off as usize + l])
        } else {
            (fr.f[*off as usize + l] + 0.5).floor() as i64
        };
        let dim = shape[k];
        debug_assert!(
            iv >= 0 && (iv as usize) < dim,
            "unsound clamp elision: index {iv} outside [0, {dim}) — analyzer bug"
        );
        linear = linear * dim + iv as usize;
    }
    linear
}

// ---------------------------------------------------------------------------
// Single-op step builders.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Explicit-SIMD step builders.
// ---------------------------------------------------------------------------

/// Maps an arith op onto its explicit vector kernel. `Rem` has no
/// bit-exactness-preserving vector form and keeps the scalar body.
fn vf_of(op: FOp) -> Option<simd::VfOp> {
    Some(match op {
        FOp::Add => simd::VfOp::Add,
        FOp::Sub => simd::VfOp::Sub,
        FOp::Mul => simd::VfOp::Mul,
        FOp::Div => simd::VfOp::Div,
        FOp::Rem => return None,
    })
}

/// Builtin pairs with explicit vector kernels. `min`/`max` use the
/// bit-exact NaN/tie-preserving sequences; the synthetic fusion
/// builtins map to plain arith. Everything else (pow, step, atan2,
/// fmod) keeps its scalar body — libm calls have no vector form here.
fn vf_of_bin(f: Bin) -> Option<simd::VfOp> {
    Some(match f {
        Bin::Min => simd::VfOp::Min,
        Bin::Max => simd::VfOp::Max,
        Bin::Add => simd::VfOp::Add,
        Bin::Sub => simd::VfOp::Sub,
        Bin::Mul => simd::VfOp::Mul,
        _ => return None,
    })
}

/// Unary builtins with explicit vector kernels: `sqrtps` is IEEE
/// correctly-rounded (identical to scalar `sqrt`), abs/neg are pure
/// sign-bit ops. The transcendental family stays scalar.
fn vu_of(f: Un) -> Option<simd::VuOp> {
    Some(match f {
        Un::Sqrt => simd::VuOp::Sqrt,
        Un::Abs => simd::VuOp::Abs,
        _ => return None,
    })
}

/// Wrapping-int ops with explicit vector kernels. Div/Rem trap on
/// zero in scalar code (a semantic the kernel model preserves via the
/// scalar body's fault path).
fn vi_of(op: IOp) -> Option<simd::ViOp> {
    Some(match op {
        IOp::Add => simd::ViOp::Add,
        IOp::Sub => simd::ViOp::Sub,
        IOp::Mul => simd::ViOp::Mul,
        IOp::Div | IOp::Rem => return None,
    })
}

/// A component-looped binary float step dispatching to the vector
/// kernels: computes all [`LANES`] lanes (slabs are always
/// initialized, so dead-lane arithmetic is unobservable) and
/// blend-stores exactly the scalar write set.
#[allow(clippy::too_many_arguments)]
fn simd_zip2(
    level: SimdLevel,
    op: simd::VfOp,
    dst: usize,
    w: usize,
    a: usize,
    ab: bool,
    b: usize,
    bb: bool,
) -> Step {
    Box::new(move |fr| {
        let m = fr.m;
        for c in 0..w {
            let d = dst + c * LANES;
            let x = a + if ab { 0 } else { c * LANES };
            let y = b + if bb { 0 } else { c * LANES };
            simd::vf_bin(level, op, fr.f, d, x, y, m);
        }
    })
}

/// A component-looped unary float step over the vector kernels.
fn simd_map1(level: SimdLevel, op: simd::VuOp, dst: usize, src: usize, w: usize) -> Step {
    Box::new(move |fr| {
        let m = fr.m;
        for c in 0..w {
            simd::vf_un(level, op, fr.f, dst + c * LANES, src + c * LANES, m);
        }
    })
}

/// The vector kernel for a step, when one exists at this level. `None`
/// keeps the scalar closure from [`step_for`]'s main match verbatim —
/// that body *is* the semantic reference, so anything without a
/// bit-exact vector form (transcendentals, int div, memory walks)
/// falls through to it.
fn simd_step_for(op: &Op, level: SimdLevel) -> Option<Step> {
    match op {
        Op::ArithF {
            op,
            dst,
            w,
            a,
            ab,
            b,
            bb,
        } => {
            let vop = vf_of(*op)?;
            Some(simd_zip2(
                level,
                vop,
                *dst as usize,
                *w as usize,
                *a as usize,
                *ab,
                *b as usize,
                *bb,
            ))
        }
        Op::Map2 {
            f,
            dst,
            w,
            a,
            ab,
            b,
            bb,
        } => {
            let vop = vf_of_bin(*f)?;
            Some(simd_zip2(
                level,
                vop,
                *dst as usize,
                *w as usize,
                *a as usize,
                *ab,
                *b as usize,
                *bb,
            ))
        }
        Op::Map1 { f, dst, src, w } => {
            let vop = vu_of(*f)?;
            Some(simd_map1(level, vop, *dst as usize, *src as usize, *w as usize))
        }
        Op::NegF { dst, src, w } => Some(simd_map1(
            level,
            simd::VuOp::Neg,
            *dst as usize,
            *src as usize,
            *w as usize,
        )),
        Op::ArithI { op, dst, a, b } => {
            let vop = vi_of(*op)?;
            let (d, a, b) = (*dst as usize, *a as usize, *b as usize);
            Some(Box::new(move |fr| {
                simd::vi_bin(level, vop, fr.i, d, a, b, fr.m);
            }))
        }
        Op::CmpF { op, dst, a, b } => {
            let (cop, d, a, b) = (*op, *dst as usize, *a as usize, *b as usize);
            Some(Box::new(move |fr| {
                let m = fr.m;
                let bits = simd::vf_cmp(level, cop, fr.f, a, b);
                fr.b[d] = (fr.b[d] & !m) | (bits & m);
            }))
        }
        Op::SelF { dst, cond, a, b, w } => {
            let (d, cnd, a, b, w) = (
                *dst as usize,
                *cond as usize,
                *a as usize,
                *b as usize,
                *w as usize,
            );
            Some(Box::new(move |fr| {
                let m = fr.m;
                let cond = fr.b[cnd];
                for c in 0..w {
                    let cl = c * LANES;
                    simd::vf_sel(level, fr.f, d + cl, a + cl, b + cl, cond, m);
                }
            }))
        }
        _ => None,
    }
}

/// The SIMD form of [`fuse_ff`]: per component, op1 computes and
/// masked-stores `d1` *before* op2's operands load (lanes are
/// independent and `operand_ok` guarantees op2's operands are exactly
/// `d1` or disjoint, so this reproduces the scalar per-lane order).
fn simd_fuse_ff(level: SimdLevel, v1: simd::VfOp, v2: simd::VfOp, p: ZipZip) -> Step {
    Box::new(move |fr| {
        let m = fr.m;
        for c in 0..p.w {
            let cl = c * LANES;
            let q = simd::FusedFF {
                x1: p.a1 + if p.ab1 { 0 } else { cl },
                y1: p.b1 + if p.bb1 { 0 } else { cl },
                d1: p.d1 + cl,
                x2: p.a2 + if p.ab2 { 0 } else { cl },
                y2: p.b2 + if p.bb2 { 0 } else { cl },
                d2: p.d2 + cl,
                ta: p.ta,
                tb: p.tb,
            };
            simd::vf_fused_ff(level, v1, v2, fr.f, q, m);
        }
    })
}

/// The SIMD form of [`fuse_ra`]: the per-lane element walk stays
/// scalar (it is a memory gather), landing the fetched values in a
/// zero-padded stack buffer that feeds the vector arith tail.
fn simd_fuse_ra(level: SimdLevel, v2: simd::VfOp, p: EZip) -> Step {
    Box::new(move |fr| {
        let m = fr.m;
        let data = fr.elem(p.slot);
        if let Some(o) = fr.contig[p.slot] {
            // The block's elements feed the vector tail in place; the
            // masked store keeps dead lanes out of the slab.
            let t: &[f32; LANES] = data[o..o + LANES]
                .try_into()
                .expect("a contiguous block spans LANES");
            if m == FULL {
                fr.f[p.d1..p.d1 + LANES].copy_from_slice(t);
            } else {
                tier_loop!(m, l, {
                    fr.f[p.d1 + l] = t[l];
                });
            }
            let q = simd::TBuf {
                d2: p.d2,
                a2: p.a2,
                b2: p.b2,
                ta: p.ta,
                tb: p.tb,
            };
            simd::vf_arith_tbuf(level, v2, fr.f, t, q, m);
            return;
        }
        let off = fr.elem_off[p.slot];
        for c in 0..p.w {
            let cl = c * LANES;
            let d1 = p.d1 + cl;
            let mut t = [0.0f32; LANES];
            tier_loop!(m, l, {
                let v = data[off[l] + c];
                t[l] = v;
                fr.f[d1 + l] = v;
            });
            let q = simd::TBuf {
                d2: p.d2 + cl,
                a2: p.a2 + if p.ab2 { 0 } else { cl },
                b2: p.b2 + if p.bb2 { 0 } else { cl },
                ta: p.ta,
                tb: p.tb,
            };
            simd::vf_arith_tbuf(level, v2, fr.f, &t, q, m);
        }
    })
}

/// The SIMD form of [`fuse_ga`]: the gather's index walk (clamping,
/// proven-elision debug asserts, dynamic index decode) is kept
/// verbatim from the scalar closure — only live lanes may touch
/// memory — and the fetched values feed the vector arith tail.
fn simd_fuse_ga(
    level: SimdLevel,
    v2: simd::VfOp,
    p: GZip,
    idx: Vec<(u32, bool)>,
    proven: Option<Vec<crate::ProvenIdx>>,
) -> Step {
    let q = simd::TBuf {
        d2: p.d2,
        a2: p.a2,
        b2: p.b2,
        ta: p.ta,
        tb: p.tb,
    };
    if let Some((o0, o1)) = gather_ff(&idx) {
        return Box::new(move |fr| {
            let m = fr.m;
            let bindings = fr.bindings;
            let Binding::Gather { data, shape, width } = &bindings[p.param] else {
                unreachable!("gather binding validated at dispatch");
            };
            let mut t = [0.0f32; LANES];
            if let [d0, d1] = shape[..] {
                let wd = *width as usize;
                let unclamped = proven
                    .as_ref()
                    .is_some_and(|pr| crate::eval::proven_fits_dyn(pr, shape, fr.comp_max));
                let mut lin = [0i32; LANES];
                if simd::vf_gather2_idx(level, fr.f, o0, o1, d0, d1, !unclamped, &mut lin) {
                    tier_loop!(m, l, {
                        debug_assert!(
                            lin[l] >= 0 && (lin[l] as usize) < d0 * d1,
                            "unsound gather index: {} outside {d0}x{d1} — analyzer bug",
                            lin[l]
                        );
                        let v = data[lin[l] as usize * wd];
                        t[l] = v;
                        fr.f[p.d1 + l] = v;
                    });
                } else if unclamped {
                    tier_loop!(m, l, {
                        let iy = (fr.f[o0 + l] + 0.5).floor() as i64;
                        let ix = (fr.f[o1 + l] + 0.5).floor() as i64;
                        debug_assert!(
                            iy >= 0 && (iy as usize) < d0 && ix >= 0 && (ix as usize) < d1,
                            "unsound clamp elision: ({iy},{ix}) outside {d0}x{d1} — analyzer bug"
                        );
                        let v = data[(iy as usize * d1 + ix as usize) * wd];
                        t[l] = v;
                        fr.f[p.d1 + l] = v;
                    });
                } else {
                    tier_loop!(m, l, {
                        let iy = (fr.f[o0 + l] + 0.5).floor() as i64;
                        let ix = (fr.f[o1 + l] + 0.5).floor() as i64;
                        let linear =
                            iy.clamp(0, d0 as i64 - 1) as usize * d1 + ix.clamp(0, d1 as i64 - 1) as usize;
                        let v = data[linear * wd];
                        t[l] = v;
                        fr.f[p.d1 + l] = v;
                    });
                }
            } else {
                let gidx = [(o0 as u32, false), (o1 as u32, false)];
                tier_loop!(m, l, {
                    let v = data[gather_linear(fr, &gidx, shape, l) * *width as usize];
                    t[l] = v;
                    fr.f[p.d1 + l] = v;
                });
            }
            simd::vf_arith_tbuf(level, v2, fr.f, &t, q, m);
        });
    }
    Box::new(move |fr| {
        let m = fr.m;
        let bindings = fr.bindings;
        let Binding::Gather { data, shape, width } = &bindings[p.param] else {
            unreachable!("gather binding validated at dispatch");
        };
        let mut t = [0.0f32; LANES];
        tier_loop!(m, l, {
            let v = data[gather_linear(fr, &idx, shape, l) * *width as usize];
            t[l] = v;
            fr.f[p.d1 + l] = v;
        });
        simd::vf_arith_tbuf(level, v2, fr.f, &t, q, m);
    })
}

/// Builds the monomorphized closure for one lane op. `Ret` is handled
/// structurally and rejected kinds never reach this point.
#[allow(clippy::too_many_lines)]
fn step_for(op: &Op, level: SimdLevel) -> Step {
    if level != SimdLevel::Scalar {
        if let Some(st) = simd_step_for(op, level) {
            return st;
        }
    }
    match op {
        Op::ConstF { dst, w, v } => {
            let (dst, w, v) = (*dst as usize, *w as usize, *v);
            Box::new(move |fr| {
                let m = fr.m;
                for (c, val) in v.iter().copied().take(w).enumerate() {
                    let d = dst + c * LANES;
                    tier_loop!(m, l, {
                        fr.f[d + l] = val;
                    });
                }
            })
        }
        Op::ConstI { dst, v } => {
            let (dst, v) = (*dst as usize, *v);
            Box::new(move |fr| {
                let m = fr.m;
                tier_loop!(m, l, {
                    fr.i[dst + l] = v;
                });
            })
        }
        Op::ConstB { dst, v } => {
            let (dst, v) = (*dst as usize, *v);
            Box::new(move |fr| {
                let m = fr.m;
                let bits = if v { m } else { 0 };
                fr.b[dst] = (fr.b[dst] & !m) | bits;
            })
        }
        Op::CopyF { dst, src, n } => {
            let (dst, src, n) = (*dst as usize, *src as usize, *n as usize);
            Box::new(move |fr| {
                let m = fr.m;
                for c in 0..n {
                    let d = dst + c * LANES;
                    let s = src + c * LANES;
                    tier_loop!(m, l, {
                        fr.f[d + l] = fr.f[s + l];
                    });
                }
            })
        }
        Op::CopyI { dst, src } => {
            let (d, s) = (*dst as usize, *src as usize);
            Box::new(move |fr| {
                let m = fr.m;
                tier_loop!(m, l, {
                    fr.i[d + l] = fr.i[s + l];
                });
            })
        }
        Op::CopyB { dst, src } => {
            let (d, s) = (*dst as usize, *src as usize);
            Box::new(move |fr| {
                let bits = fr.b[s];
                fr.b[d] = (fr.b[d] & !fr.m) | (bits & fr.m);
            })
        }
        Op::SplatF { dst, w, src } => {
            let (dst, w, s) = (*dst as usize, *w as usize, *src as usize);
            Box::new(move |fr| {
                let m = fr.m;
                for c in 0..w {
                    let d = dst + c * LANES;
                    tier_loop!(m, l, {
                        fr.f[d + l] = fr.f[s + l];
                    });
                }
            })
        }
        Op::SplatI { dst, w, src } => {
            let (dst, w, s) = (*dst as usize, *w as usize, *src as usize);
            Box::new(move |fr| {
                let m = fr.m;
                for c in 0..w {
                    let d = dst + c * LANES;
                    tier_loop!(m, l, {
                        fr.f[d + l] = fr.i[s + l] as f32;
                    });
                }
            })
        }
        Op::ItoF { dst, src } => {
            let (d, s) = (*dst as usize, *src as usize);
            Box::new(move |fr| {
                let m = fr.m;
                tier_loop!(m, l, {
                    fr.f[d + l] = fr.i[s + l] as f32;
                });
            })
        }
        Op::FtoI { dst, src } => {
            let (d, s) = (*dst as usize, *src as usize);
            Box::new(move |fr| {
                let m = fr.m;
                tier_loop!(m, l, {
                    fr.i[d + l] = fr.f[s + l] as i32;
                });
            })
        }
        Op::ArithF {
            op,
            dst,
            w,
            a,
            ab,
            b,
            bb,
        } => with_fop!(
            *op,
            g,
            zip2_step(g, *dst as usize, *w as usize, *a as usize, *ab, *b as usize, *bb)
        ),
        Op::Map2 {
            f,
            dst,
            w,
            a,
            ab,
            b,
            bb,
        } => glsl_es::with_prim!(
            bin *f,
            g => zip2_step(g, *dst as usize, *w as usize, *a as usize, *ab, *b as usize, *bb)
        ),
        Op::ArithI { op, dst, a, b } => {
            with_iop!(*op, g, arithi_step(g, *dst as usize, *a as usize, *b as usize))
        }
        Op::CmpF { op, dst, a, b } => {
            with_cop!(*op, g, cmpf_step(g, *dst as usize, *a as usize, *b as usize))
        }
        Op::CmpI { op, dst, a, b } => {
            with_cop!(*op, g, cmpi_step(g, *dst as usize, *a as usize, *b as usize))
        }
        Op::LogicB { op, dst, a, b } => {
            let (d, a, b) = (*dst as usize, *a as usize, *b as usize);
            match op {
                BOp::And => logicb_step(|x, y| x & y, d, a, b),
                BOp::Or => logicb_step(|x, y| x | y, d, a, b),
                BOp::Eq => logicb_step(|x, y| !(x ^ y), d, a, b),
                BOp::Ne => logicb_step(|x, y| x ^ y, d, a, b),
            }
        }
        Op::NotB { dst, src } => {
            let (d, s) = (*dst as usize, *src as usize);
            Box::new(move |fr| {
                let bits = !fr.b[s];
                fr.b[d] = (fr.b[d] & !fr.m) | (bits & fr.m);
            })
        }
        Op::NegF { dst, src, w } => {
            let (dst, src, w) = (*dst as usize, *src as usize, *w as usize);
            Box::new(move |fr| {
                let m = fr.m;
                for c in 0..w {
                    let d = dst + c * LANES;
                    let s = src + c * LANES;
                    tier_loop!(m, l, {
                        fr.f[d + l] = -fr.f[s + l];
                    });
                }
            })
        }
        Op::NegI { dst, src } => {
            let (d, s) = (*dst as usize, *src as usize);
            Box::new(move |fr| {
                let m = fr.m;
                tier_loop!(m, l, {
                    fr.i[d + l] = fr.i[s + l].wrapping_neg();
                });
            })
        }
        Op::Map1 { f, dst, src, w } => {
            glsl_es::with_prim!(un *f, g => map1_step(g, *dst as usize, *src as usize, *w as usize))
        }
        Op::SelF { dst, cond, a, b, w } => {
            let (d, cnd, a, b, w) = (
                *dst as usize,
                *cond as usize,
                *a as usize,
                *b as usize,
                *w as usize,
            );
            Box::new(move |fr| {
                let m = fr.m;
                let cb = fr.b[cnd];
                tier_loop!(m, l, {
                    let src = if cb & (1 << l) != 0 { a } else { b };
                    for c in 0..w {
                        fr.f[d + c * LANES + l] = fr.f[src + c * LANES + l];
                    }
                });
            })
        }
        Op::SelI { dst, cond, a, b } => {
            let (d, cnd, a, b) = (*dst as usize, *cond as usize, *a as usize, *b as usize);
            Box::new(move |fr| {
                let m = fr.m;
                let cb = fr.b[cnd];
                tier_loop!(m, l, {
                    fr.i[d + l] = if cb & (1 << l) != 0 {
                        fr.i[a + l]
                    } else {
                        fr.i[b + l]
                    };
                });
            })
        }
        Op::SelB { dst, cond, a, b } => {
            let (d, cnd, a, b) = (*dst as usize, *cond as usize, *a as usize, *b as usize);
            Box::new(move |fr| {
                let cb = fr.b[cnd];
                let bits = (fr.b[a] & cb) | (fr.b[b] & !cb);
                fr.b[d] = (fr.b[d] & !fr.m) | (bits & fr.m);
            })
        }
        Op::ReadElem { dst, w, slot } => {
            let (dst, w, slot) = (*dst as usize, *w as usize, *slot as usize);
            Box::new(move |fr| {
                let m = fr.m;
                let data = fr.elem(slot);
                if let Some(o) = fr.contig[slot] {
                    let src = &data[o..o + LANES];
                    if m == FULL {
                        fr.f[dst..dst + LANES].copy_from_slice(src);
                    } else {
                        tier_loop!(m, l, {
                            fr.f[dst + l] = src[l];
                        });
                    }
                    return;
                }
                let off = fr.elem_off[slot];
                for c in 0..w {
                    let d = dst + c * LANES;
                    tier_loop!(m, l, {
                        fr.f[d + l] = data[off[l] + c];
                    });
                }
            })
        }
        Op::ReadScalarF { dst, w, slot } => {
            let (dst, w, slot) = (*dst as usize, *w as usize, *slot as usize);
            Box::new(move |fr| {
                let m = fr.m;
                let v = fr.scalar_f[slot];
                for (c, val) in v.iter().copied().take(w).enumerate() {
                    let d = dst + c * LANES;
                    tier_loop!(m, l, {
                        fr.f[d + l] = val;
                    });
                }
            })
        }
        Op::ReadScalarI { dst, slot } => {
            let (d, slot) = (*dst as usize, *slot as usize);
            Box::new(move |fr| {
                let m = fr.m;
                let v = fr.scalar_i[slot];
                tier_loop!(m, l, {
                    fr.i[d + l] = v;
                });
            })
        }
        Op::Gather {
            dst,
            w,
            param,
            idx,
            proven,
        } => {
            let (dst, w, param) = (*dst as usize, *w as usize, *param as usize);
            let proven = proven.clone();
            if let Some((o0, o1)) = gather_ff(idx) {
                return Box::new(move |fr| {
                    let m = fr.m;
                    let bindings = fr.bindings;
                    let Binding::Gather { data, shape, width } = &bindings[param] else {
                        unreachable!("gather binding validated at dispatch");
                    };
                    if let [d0, d1] = shape[..] {
                        let wd = *width as usize;
                        let unclamped = proven
                            .as_ref()
                            .is_some_and(|p| crate::eval::proven_fits_dyn(p, shape, fr.comp_max));
                        let mut lin = [0i32; LANES];
                        if simd::vf_gather2_idx(level, fr.f, o0, o1, d0, d1, !unclamped, &mut lin) {
                            // Index math vectorized (bit-exact, see
                            // `vf_gather2_idx`); loads stay per live
                            // lane so dead-lane indices are never read.
                            tier_loop!(m, l, {
                                debug_assert!(
                                    lin[l] >= 0 && (lin[l] as usize) < d0 * d1,
                                    "unsound gather index: {} outside {d0}x{d1} — analyzer bug",
                                    lin[l]
                                );
                                let src = lin[l] as usize * wd;
                                for c in 0..w {
                                    fr.f[dst + c * LANES + l] = data[src + c];
                                }
                            });
                        } else if unclamped {
                            // Analyzer-proven in-bounds: no clamps in
                            // the hot two-float-index loop.
                            tier_loop!(m, l, {
                                let iy = (fr.f[o0 + l] + 0.5).floor() as i64;
                                let ix = (fr.f[o1 + l] + 0.5).floor() as i64;
                                debug_assert!(
                                    iy >= 0 && (iy as usize) < d0 && ix >= 0 && (ix as usize) < d1,
                                    "unsound clamp elision: ({iy},{ix}) outside {d0}x{d1} — analyzer bug"
                                );
                                let src = (iy as usize * d1 + ix as usize) * wd;
                                for c in 0..w {
                                    fr.f[dst + c * LANES + l] = data[src + c];
                                }
                            });
                        } else {
                            tier_loop!(m, l, {
                                let iy = (fr.f[o0 + l] + 0.5).floor() as i64;
                                let ix = (fr.f[o1 + l] + 0.5).floor() as i64;
                                let linear = iy.clamp(0, d0 as i64 - 1) as usize * d1
                                    + ix.clamp(0, d1 as i64 - 1) as usize;
                                let src = linear * wd;
                                for c in 0..w {
                                    fr.f[dst + c * LANES + l] = data[src + c];
                                }
                            });
                        }
                    } else {
                        let idx = [(o0 as u32, false), (o1 as u32, false)];
                        tier_loop!(m, l, {
                            let src = gather_linear(fr, &idx, shape, l) * *width as usize;
                            for c in 0..w {
                                fr.f[dst + c * LANES + l] = data[src + c];
                            }
                        });
                    }
                });
            }
            let idx = idx.clone();
            Box::new(move |fr| {
                let m = fr.m;
                let bindings = fr.bindings;
                let Binding::Gather { data, shape, width } = &bindings[param] else {
                    unreachable!("gather binding validated at dispatch");
                };
                if proven
                    .as_ref()
                    .is_some_and(|p| crate::eval::proven_fits_dyn(p, shape, fr.comp_max))
                {
                    tier_loop!(m, l, {
                        let src = gather_linear_unclamped(fr, &idx, shape, l) * *width as usize;
                        for c in 0..w {
                            fr.f[dst + c * LANES + l] = data[src + c];
                        }
                    });
                } else {
                    tier_loop!(m, l, {
                        let src = gather_linear(fr, &idx, shape, l) * *width as usize;
                        for c in 0..w {
                            fr.f[dst + c * LANES + l] = data[src + c];
                        }
                    });
                }
            })
        }
        Op::Indexof { dst, slot } => {
            let (d, slot) = (*dst as usize, *slot as usize);
            Box::new(move |fr| {
                let m = fr.m;
                let v = fr.idx_vals[slot];
                tier_loop!(m, l, {
                    fr.f[d + l] = v[l][0];
                    fr.f[d + LANES + l] = v[l][1];
                });
            })
        }
        Op::Dot { .. } | Op::Length { .. } | Op::Normalize { .. } | Op::Ret | Op::Bail => {
            unreachable!("rejected at tier admission / handled structurally")
        }
    }
}

// ---------------------------------------------------------------------------
// The superword peephole.
// ---------------------------------------------------------------------------

/// Component-range overlap between two slab operands (`a` spanning
/// `aw` components, `b` spanning `bw`). Offsets are in `f32` units.
fn overlaps(a: u32, aw: usize, b: u32, bw: usize) -> bool {
    (a as usize) < b as usize + bw * LANES && (b as usize) < a as usize + aw * LANES
}

/// An op2 float operand is safe under fusion when it either names
/// op1's destination base exactly (served from the in-register `t`, or
/// a broadcast of the already-stored component 0) or does not overlap
/// op1's destination range at all.
fn operand_ok(off: u32, bcast: bool, d1: u32, w: usize) -> bool {
    off == d1 || !overlaps(off, if bcast { 1 } else { w }, d1, w)
}

/// Tries to fuse two adjacent (post-hoist) ops into one closure.
/// Every pattern preserves the lane engine's exact evaluation order
/// per `(component, lane)` — operand positions are kept, so even NaN
/// payload propagation is bit-identical.
#[allow(clippy::too_many_lines)]
fn try_fuse(o1: &Op, o2: &Op, level: SimdLevel) -> Option<Step> {
    match (o1, o2) {
        // arith -> arith (the mul+add family).
        (
            Op::ArithF {
                op: op1,
                dst: d1,
                w: w1,
                a: a1,
                ab: ab1,
                b: b1,
                bb: bb1,
            },
            Op::ArithF {
                op: op2,
                dst: d2,
                w: w2,
                a: a2,
                ab: ab2,
                b: b2,
                bb: bb2,
            },
        ) if w1 == w2 && (*a2 == *d1 || *b2 == *d1) => {
            let w = *w1 as usize;
            let aw1 = if *ab1 { 1 } else { w };
            let bw1 = if *bb1 { 1 } else { w };
            let safe = operand_ok(*a2, *ab2, *d1, w)
                && operand_ok(*b2, *bb2, *d1, w)
                && (w == 1
                    || (!overlaps(*d2, w, *d1, w)
                        && !overlaps(*d2, w, *a1, aw1)
                        && !overlaps(*d2, w, *b1, bw1)));
            if !safe {
                return None;
            }
            let p = ZipZip {
                w,
                a1: *a1 as usize,
                ab1: *ab1,
                b1: *b1 as usize,
                bb1: *bb1,
                d1: *d1 as usize,
                a2: *a2 as usize,
                ab2: *ab2,
                b2: *b2 as usize,
                bb2: *bb2,
                d2: *d2 as usize,
                ta: *a2 == *d1 && !*ab2,
                tb: *b2 == *d1 && !*bb2,
            };
            if level != SimdLevel::Scalar {
                if let (Some(v1), Some(v2)) = (vf_of(*op1), vf_of(*op2)) {
                    return Some(simd_fuse_ff(level, v1, v2, p));
                }
            }
            Some(with_fop!(*op1, g1, with_fop!(*op2, g2, fuse_ff(g1, g2, p))))
        }
        // scalar arith -> compare.
        (
            Op::ArithF {
                op: op1,
                dst: d1,
                w: 1,
                a: a1,
                b: b1,
                ..
            },
            Op::CmpF {
                op: op2,
                dst: d2,
                a: a2,
                b: b2,
            },
        ) if *a2 == *d1 || *b2 == *d1 => {
            let p = FCmp {
                a1: *a1 as usize,
                b1: *b1 as usize,
                d1: *d1 as usize,
                a2: *a2 as usize,
                b2: *b2 as usize,
                d2: *d2 as usize,
                ta: *a2 == *d1,
                tb: *b2 == *d1,
            };
            if level != SimdLevel::Scalar {
                if let Some(v1) = vf_of(*op1) {
                    let cop = *op2;
                    let q = simd::FusedFC {
                        x1: p.a1,
                        y1: p.b1,
                        d1: p.d1,
                        x2: p.a2,
                        y2: p.b2,
                        ta: p.ta,
                        tb: p.tb,
                    };
                    return Some(Box::new(move |fr| {
                        let m = fr.m;
                        let bits = simd::vf_fused_fc(level, v1, cop, fr.f, q, m);
                        fr.b[p.d2] = (fr.b[p.d2] & !m) | (bits & m);
                    }));
                }
            }
            Some(with_fop!(*op1, g1, with_cop!(*op2, g2, fuse_fc(g1, g2, p))))
        }
        // compare -> select (the ternary).
        (
            Op::CmpF {
                op: op1,
                dst: d1,
                a: a1,
                b: b1,
            },
            Op::SelF {
                dst: d2,
                cond,
                a: a2,
                b: b2,
                w,
            },
        ) if *cond == *d1 => {
            let p = CSel {
                a1: *a1 as usize,
                b1: *b1 as usize,
                d1: *d1 as usize,
                a2: *a2 as usize,
                b2: *b2 as usize,
                d2: *d2 as usize,
                w: *w as usize,
            };
            if level != SimdLevel::Scalar {
                let cop = *op1;
                return Some(Box::new(move |fr| {
                    let m = fr.m;
                    let bits = simd::vf_cmp(level, cop, fr.f, p.a1, p.b1);
                    fr.b[p.d1] = (fr.b[p.d1] & !m) | (bits & m);
                    for c in 0..p.w {
                        let cl = c * LANES;
                        simd::vf_sel(level, fr.f, p.d2 + cl, p.a2 + cl, p.b2 + cl, bits, m);
                    }
                }));
            }
            Some(with_cop!(*op1, g1, fuse_cs(g1, p)))
        }
        // elementwise fetch -> arith.
        (
            Op::ReadElem { dst: d1, w: w1, slot },
            Op::ArithF {
                op: op2,
                dst: d2,
                w: w2,
                a: a2,
                ab: ab2,
                b: b2,
                bb: bb2,
            },
        ) if w1 == w2 && (*a2 == *d1 || *b2 == *d1) => {
            let w = *w1 as usize;
            let safe = operand_ok(*a2, *ab2, *d1, w)
                && operand_ok(*b2, *bb2, *d1, w)
                && (w == 1 || !overlaps(*d2, w, *d1, w));
            if !safe {
                return None;
            }
            let p = EZip {
                slot: *slot as usize,
                d1: *d1 as usize,
                w,
                a2: *a2 as usize,
                ab2: *ab2,
                b2: *b2 as usize,
                bb2: *bb2,
                d2: *d2 as usize,
                ta: *a2 == *d1 && !*ab2,
                tb: *b2 == *d1 && !*bb2,
            };
            if level != SimdLevel::Scalar {
                if let Some(v2) = vf_of(*op2) {
                    return Some(simd_fuse_ra(level, v2, p));
                }
            }
            Some(with_fop!(*op2, g2, fuse_ra(g2, p)))
        }
        // gather -> arith (both scalar-width).
        (
            Op::Gather {
                dst: d1,
                w: 1,
                param,
                idx,
                proven,
            },
            Op::ArithF {
                op: op2,
                dst: d2,
                w: 1,
                a: a2,
                b: b2,
                ..
            },
        ) if *a2 == *d1 || *b2 == *d1 => {
            let p = GZip {
                param: *param as usize,
                d1: *d1 as usize,
                a2: *a2 as usize,
                b2: *b2 as usize,
                d2: *d2 as usize,
                ta: *a2 == *d1,
                tb: *b2 == *d1,
            };
            if level != SimdLevel::Scalar {
                if let Some(v2) = vf_of(*op2) {
                    return Some(simd_fuse_ga(level, v2, p, idx.clone(), proven.clone()));
                }
            }
            Some(with_fop!(*op2, g2, fuse_ga(g2, p, idx.clone(), proven.clone())))
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Compilation: admission, hoisting, chain construction.
// ---------------------------------------------------------------------------

/// Tier-compiles a lane-admitted kernel into its closure chain at SIMD
/// `level`, or explains why it must stay on the lane engine. Admission
/// is conservative in the same spirit as the lane planner: anything the
/// closure model does not cover is rejected, not approximated. With
/// analyzer facts, a statically planned fault site (`Op::Bail`) whose
/// originating instruction the abstract interpreter proved unreachable
/// no longer rejects the kernel — it compiles to a `debug_assert!(false)`
/// no-op step that aborts loudly in tests if the proof was wrong.
///
/// Steps whose scalar loop bodies have hand-written vector kernels
/// dispatch into [`crate::simd`] (bit-exact by construction — no FMA
/// contraction, operand order preserved, masked stores reproduce the
/// scalar write set); every other step keeps its verbatim scalar
/// closure. The level is capped at what the host actually supports.
///
/// # Errors
/// A human-readable rejection reason (recorded in the compliance
/// report's tier-plan table).
pub fn compile_simd(
    lane: &LaneKernel,
    kernel: &IrKernel,
    facts: Option<&crate::KernelFacts>,
    level: SimdLevel,
) -> Result<TierKernel, String> {
    let level = level.min(simd::detect());
    for (i, op) in lane.ops.iter().enumerate() {
        match op {
            Op::Bail => {
                // `op_start` maps pcs to op ranges; recover the pc that
                // produced op `i` to consult the reachability fact.
                let pc = lane
                    .op_start
                    .partition_point(|&s| s as usize <= i)
                    .saturating_sub(1);
                let unreachable = facts.is_some_and(|f| f.is_unreachable(pc));
                if !unreachable {
                    return Err(
                        "contains a statically planned fault site (scalar semantics required)".into(),
                    );
                }
            }
            Op::Dot { .. } | Op::Length { .. } | Op::Normalize { .. } => {
                return Err("cross-component reduction (dot/length/normalize) is not closure-threaded".into())
            }
            _ => {}
        }
    }
    let (hoisted, order) = hoist_plan(lane);
    let prologue: Vec<Step> = order.iter().map(|i| step_for(&lane.ops[*i], level)).collect();
    let mut uniform_i = vec![false; lane.i_len / LANES];
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for &i in &order {
        op_slots(&lane.ops[i], &mut reads, &mut writes);
        for s in &writes {
            if let Slot::I(c) = s {
                uniform_i[*c] = true;
            }
        }
    }
    let mut b = Builder {
        lane,
        hoisted: &hoisted,
        uniform_i,
        level,
        fused: 0,
        steps: 0,
        counted: 0,
        quiescent: 0,
    };
    let chain = b.nodes(&kernel.body);
    Ok(TierKernel {
        prologue,
        chain,
        ops_in: lane.ops.len(),
        steps: b.steps,
        fused: b.fused,
        hoisted: order.len(),
        counted: b.counted,
        quiescent: b.quiescent,
        level,
    })
}

/// Chain construction over a kernel's structured regions, with the
/// statistics [`TierKernel::detail`] reports.
struct Builder<'a> {
    lane: &'a LaneKernel,
    hoisted: &'a [bool],
    /// Per `i32` slab: written by a hoisted op, hence uniform across
    /// the dispatch.
    uniform_i: Vec<bool>,
    level: SimdLevel,
    fused: usize,
    steps: usize,
    counted: usize,
    quiescent: usize,
}

impl Builder<'_> {
    fn nodes(&mut self, nodes: &[Node]) -> Vec<TNode> {
        let mut out = Vec::new();
        for n in nodes {
            match n {
                Node::Seq { start, end } => {
                    let idxs = live_ops(self.lane, self.hoisted, *start, *end);
                    self.seq(&idxs, &mut out);
                }
                Node::If { cond, then, els, .. } => out.push(TNode::If {
                    cond: self.lane.cond_off[*cond as usize] as usize,
                    then: self.nodes(then),
                    els: self.nodes(els),
                }),
                Node::Loop(l) => out.push(self.loop_node(l)),
            }
        }
        out
    }

    fn loop_node(&mut self, l: &LoopNode) -> TNode {
        let cond = self.lane.cond_off[l.cond as usize] as usize;
        let header = self.nodes(&l.header);
        let shape = counted_shape(l, self.lane, self.hoisted, &self.uniform_i);
        let (Some((mut plan, inc, quiescent)), Some((Node::Seq { start, end }, rest))) =
            (shape, l.body.split_last())
        else {
            return TNode::Loop {
                dowhile: l.kind == LoopKind::DoWhile,
                cond,
                header,
                body: self.nodes(&l.body),
                counted: None,
            };
        };
        // The increment becomes a node of its own, so the counted path
        // can skip it while both paths share every closure.
        let mut body = self.nodes(rest);
        let mut idxs = live_ops(self.lane, self.hoisted, *start, *end);
        idxs.pop();
        self.seq(&idxs, &mut body);
        body.push(TNode::Straight(vec![step_for(&self.lane.ops[inc], self.level)]));
        self.steps += 1;
        self.counted += 1;
        if quiescent {
            // The prefix compiled to straight nodes, then the guard.
            let g = body.len() - 2;
            debug_assert!(
                matches!(body[g], TNode::If { .. }),
                "the guard precedes the increment"
            );
            plan.guard = Some(g);
            self.quiescent += 1;
        }
        TNode::Loop {
            dowhile: false,
            cond,
            header,
            body,
            counted: Some(plan),
        }
    }

    /// Compiles one straight-line run of (non-hoisted) ops: adjacent
    /// dependent pairs fuse, a kernel-level `return` truncates the
    /// region (the lane engine skips the remainder too).
    fn seq(&mut self, idxs: &[usize], out: &mut Vec<TNode>) {
        let lane = self.lane;
        let mut cur: Vec<Step> = Vec::new();
        let mut k = 0usize;
        while k < idxs.len() {
            let op = &lane.ops[idxs[k]];
            if matches!(op, Op::Ret) {
                if !cur.is_empty() {
                    self.steps += cur.len();
                    out.push(TNode::Straight(std::mem::take(&mut cur)));
                }
                out.push(TNode::Ret);
                return;
            }
            if matches!(op, Op::Bail) {
                // Admitted only when the analyzer proved the site
                // unreachable (`compile_simd` with facts): a no-op that aborts
                // loudly in tests if the proof was wrong.
                cur.push(Box::new(|_fr| {
                    debug_assert!(false, "proven-unreachable fault site executed — analyzer bug");
                }));
                k += 1;
                continue;
            }
            if k + 1 < idxs.len() {
                if let Some(st) = try_fuse(op, &lane.ops[idxs[k + 1]], self.level) {
                    cur.push(st);
                    self.fused += 1;
                    k += 2;
                    continue;
                }
            }
            cur.push(step_for(op, self.level));
            k += 1;
        }
        if !cur.is_empty() {
            self.steps += cur.len();
            out.push(TNode::Straight(cur));
        }
    }
}

/// The non-hoisted op indices of instructions `[start, end)`: what runs
/// per block (hoisted ops run in the prologue).
fn live_ops(lane: &LaneKernel, hoisted: &[bool], start: u32, end: u32) -> Vec<usize> {
    let lo = lane.op_start[start as usize] as usize;
    let hi = lane.op_start[end as usize] as usize;
    (lo..hi).filter(|i| !hoisted[*i]).collect()
}

/// Appends the non-hoisted op indices of every instruction under
/// `nodes`, nested regions included, in program order.
fn region_ops(nodes: &[Node], lane: &LaneKernel, hoisted: &[bool], out: &mut Vec<usize>) {
    for n in nodes {
        match n {
            Node::Seq { start, end } => out.extend(live_ops(lane, hoisted, *start, *end)),
            Node::If { then, els, .. } => {
                region_ops(then, lane, hoisted, out);
                region_ops(els, lane, hoisted, out);
            }
            Node::Loop(l) => {
                region_ops(&l.header, lane, hoisted, out);
                region_ops(&l.body, lane, hoisted, out);
            }
        }
    }
}

/// Recognizes a counted loop: a `for` whose header's only per-block op
/// is `cond = k < n` and whose body ends in `k += c`, with `n` and `c`
/// hoisted uniform ints and no other op of the loop writing `k`.
/// Returns its plan (guard not yet placed), the op index of the
/// increment, and whether it may take the quiescent exit.
fn counted_shape(
    l: &LoopNode,
    lane: &LaneKernel,
    hoisted: &[bool],
    uniform_i: &[bool],
) -> Option<(Counted, usize, bool)> {
    if l.kind != LoopKind::For || !l.header.iter().all(|n| matches!(n, Node::Seq { .. })) {
        return None;
    }
    let mut header = Vec::new();
    region_ops(&l.header, lane, hoisted, &mut header);
    let [h] = header[..] else { return None };
    let Op::CmpI {
        op: COp::Lt,
        dst,
        a: k,
        b: n,
    } = lane.ops[h]
    else {
        return None;
    };
    if dst != lane.cond_off[l.cond as usize] || !uniform_i[n as usize / LANES] {
        return None;
    }
    let Some(Node::Seq { start, end }) = l.body.last() else {
        return None;
    };
    let inc = *live_ops(lane, hoisted, *start, *end).last()?;
    let Op::ArithI {
        op: IOp::Add,
        dst,
        a,
        b: c,
    } = lane.ops[inc]
    else {
        return None;
    };
    if dst != k || a != k || !uniform_i[c as usize / LANES] {
        return None;
    }
    let ks = Slot::I(k as usize / LANES);
    let mut body = Vec::new();
    region_ops(&l.body, lane, hoisted, &mut body);
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let mut k_read = false;
    for &i in body.iter().filter(|i| **i != inc) {
        op_slots(&lane.ops[i], &mut reads, &mut writes);
        if writes.contains(&ks) {
            return None;
        }
        k_read |= reads.contains(&ks);
    }
    let plan = Counted {
        k: k as usize,
        n: n as usize,
        c: c as usize,
        k_read,
        guard: None,
    };
    Some((plan, inc, quiescent(l, lane, hoisted, h, inc)))
}

/// Whether a counted loop (header op `h`, increment op `inc`) may stop
/// at its first no-op iteration: its body is a straight prefix, one
/// `If` without `else`, and the increment, and no prefix op or guard
/// reads a slot written in the loop outside that `then` unless the
/// prefix wrote it earlier in the same iteration. An iteration in which
/// no lane enters the `then` then leaves every slot the prefix reads as
/// it found it, so every later iteration repeats the same no-op.
fn quiescent(l: &LoopNode, lane: &LaneKernel, hoisted: &[bool], h: usize, inc: usize) -> bool {
    let [prefix @ .., Node::If { cond, els, .. }, Node::Seq { start, end }] = &l.body[..] else {
        return false;
    };
    if !els.is_empty()
        || !prefix.iter().all(|n| matches!(n, Node::Seq { .. }))
        || live_ops(lane, hoisted, *start, *end) != [inc]
    {
        return false;
    }
    let mut pre = Vec::new();
    region_ops(prefix, lane, hoisted, &mut pre);
    if pre.iter().any(|i| matches!(lane.ops[*i], Op::Ret)) {
        return false;
    }
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    let mut outside = Vec::new();
    for &i in pre.iter().chain([&h, &inc]) {
        op_slots(&lane.ops[i], &mut reads, &mut writes);
        outside.extend_from_slice(&writes);
    }
    let mut fresh = Vec::new();
    for &i in &pre {
        op_slots(&lane.ops[i], &mut reads, &mut writes);
        if reads.iter().any(|s| outside.contains(s) && !fresh.contains(s)) {
            return false;
        }
        fresh.extend_from_slice(&writes);
    }
    let g = Slot::B(lane.cond_off[*cond as usize] as usize);
    !outside.contains(&g) || fresh.contains(&g)
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

/// Internal signal: abandon the current block and re-run it through
/// the lane engine (which reproduces the scalar fault surface).
struct BailOut;

fn bump_iters(fr: &mut Frame<'_>, m: Mask) -> Result<(), BailOut> {
    let mut mm = m;
    while mm != 0 {
        let l = mm.trailing_zeros() as usize;
        fr.iters[l] += 1;
        if u64::from(fr.iters[l]) > MAX_ITERATIONS {
            return Err(BailOut);
        }
        mm &= mm - 1;
    }
    Ok(())
}

fn exec_chain(fr: &mut Frame<'_>, nodes: &[TNode], mask: Mask) -> Result<(), BailOut> {
    for n in nodes {
        let m = mask & !fr.dead;
        if m == 0 {
            return Ok(());
        }
        match n {
            TNode::Straight(steps) => {
                fr.m = m;
                for s in steps {
                    s(fr);
                }
            }
            TNode::Ret => {
                fr.dead |= m;
            }
            TNode::If { cond, then, els } => {
                let cb = fr.b[*cond];
                let tm = m & cb;
                let em = m & !cb;
                if tm != 0 {
                    exec_chain(fr, then, tm)?;
                }
                if em != 0 {
                    exec_chain(fr, els, em)?;
                }
            }
            TNode::Loop {
                dowhile,
                cond,
                header,
                body,
                counted,
            } => match counted {
                Some(plan) => exec_counted(fr, plan, *cond, header, body, m)?,
                None => exec_tier_loop(fr, *dowhile, *cond, header, body, m)?,
            },
        }
    }
    Ok(())
}

fn exec_tier_loop(
    fr: &mut Frame<'_>,
    dowhile: bool,
    cond: usize,
    header: &[TNode],
    body: &[TNode],
    mask: Mask,
) -> Result<(), BailOut> {
    let mut active = mask;
    if dowhile {
        loop {
            active &= !fr.dead;
            if active == 0 {
                return Ok(());
            }
            exec_chain(fr, body, active)?;
            active &= !fr.dead;
            if active == 0 {
                return Ok(());
            }
            exec_chain(fr, header, active)?;
            active &= !fr.dead & fr.b[cond];
            if active == 0 {
                return Ok(());
            }
            bump_iters(fr, active)?;
        }
    }
    loop {
        active &= !fr.dead;
        if active == 0 {
            return Ok(());
        }
        exec_chain(fr, header, active)?;
        active &= !fr.dead & fr.b[cond];
        if active == 0 {
            return Ok(());
        }
        exec_chain(fr, body, active)?;
        active &= !fr.dead;
        if active != 0 {
            bump_iters(fr, active)?;
        }
    }
}

/// Runs a counted loop on its static trip count (see the module docs),
/// or through [`exec_tier_loop`] when the counter differs between the
/// active lanes, the step is not positive or the final counter would
/// overflow `i32`.
fn exec_counted(
    fr: &mut Frame<'_>,
    plan: &Counted,
    cond: usize,
    header: &[TNode],
    body: &[TNode],
    mask: Mask,
) -> Result<(), BailOut> {
    let k0 = fr.i[plan.k + mask.trailing_zeros() as usize];
    let mut uniform = true;
    tier_loop!(mask, l, {
        uniform &= fr.i[plan.k + l] == k0;
    });
    let (k0, n, c) = (i64::from(k0), i64::from(fr.i[plan.n]), i64::from(fr.i[plan.c]));
    if !uniform || c <= 0 {
        return exec_tier_loop(fr, false, cond, header, body, mask);
    }
    let trip = if k0 < n { (n - k0 + c - 1) / c } else { 0 };
    let Ok(kf) = i32::try_from(k0 + trip * c) else {
        return exec_tier_loop(fr, false, cond, header, body, mask);
    };
    // The whole loop's budget up front: a lane that would exceed it
    // sends the block to the lane engine, which faults verbatim.
    let mut mm = mask;
    while mm != 0 {
        let l = mm.trailing_zeros() as usize;
        let total = u64::from(fr.iters[l]) + trip as u64;
        if total > MAX_ITERATIONS {
            return Err(BailOut);
        }
        fr.iters[l] = total as u32;
        mm &= mm - 1;
    }
    let run = if plan.k_read {
        body
    } else {
        &body[..body.len() - 1]
    };
    let mut live = mask;
    for _ in 0..trip {
        match plan.guard {
            Some(g) => {
                exec_chain(fr, &run[..g], live)?;
                let TNode::If { cond: gc, then, .. } = &run[g] else {
                    unreachable!("a quiescent loop's guard is an `If`")
                };
                let taken = live & !fr.dead & fr.b[*gc];
                if taken == 0 {
                    break;
                }
                exec_chain(fr, then, taken)?;
                exec_chain(fr, &run[g + 1..], live)?;
            }
            None => {
                exec_chain(fr, run, live)?;
            }
        }
        live &= !fr.dead;
        if live == 0 {
            break;
        }
    }
    tier_loop!(live, l, {
        fr.i[plan.k + l] = kf;
    });
    fr.b[cond] &= !live;
    Ok(())
}

/// How one elementwise slot's per-lane element offsets are framed.
#[derive(Clone, Copy, Debug)]
enum Fetch {
    /// Element `min(p, last)` for domain position `p` (`y·dx + x`):
    /// 1-D-shaped inputs, and 2-D inputs whose resampling tables are
    /// the identity.
    Linear { last: usize },
    /// A resampled 2-D input: element `row[y] · cols + col[x]`, with
    /// `col`/`row` the starts of its tables in [`FrameScratch::tables`].
    Grid { cols: usize, col: usize, row: usize },
}

/// How one `indexof` slot's per-lane values are framed.
#[derive(Clone, Copy, Debug)]
enum Idx {
    /// `[min(p, last), 0]`: of a 1-D-shaped input (`last = len − 1`),
    /// or of an output or scalar binding on a 1-D domain (no clamp).
    Linear { last: usize },
    /// Of a 2-D input: `[col[x], row[y]]` from its tables.
    Grid { col: usize, row: usize },
    /// Of an output or scalar binding on a 2-D domain: `[x, y]`.
    Xy,
}

/// Per-launch framing scratch of [`run_kernel_range_in`], kept in the
/// caller-owned [`LaneSlabs`] so that a reused slab frame allocates
/// nothing per launch once it has grown to the kernel's needs.
#[derive(Debug, Default)]
pub(crate) struct FrameScratch {
    /// Output slot → index into the launch's output buffers.
    out_buf: Vec<usize>,
    scalar_f: Vec<[f32; 4]>,
    scalar_i: Vec<i32>,
    /// Per elementwise slot: `(width, fetch plan)`.
    fetch: Vec<(usize, Fetch)>,
    contig: Vec<Option<usize>>,
    elem_off: Vec<[usize; LANES]>,
    idx: Vec<Idx>,
    idx_vals: Vec<[[f32; 2]; LANES]>,
    /// Column and row tables of the resampled 2-D inputs: `ix` for each
    /// column and `iy` for each row the range touches, computed with
    /// [`input_index`] itself so they are bit-exact by construction.
    tables: Vec<usize>,
}

/// The columns and rows a launch range touches, as the offsets the
/// resampling tables are indexed from.
struct Window {
    cols: Range<usize>,
    rows: Range<usize>,
}

impl Window {
    fn of(range: &Range<usize>, dx: usize) -> Window {
        let rows = range.start / dx..(range.end - 1) / dx + 1;
        let cols = if rows.len() == 1 {
            range.start % dx..(range.end - 1) % dx + 1
        } else {
            0..dx
        };
        Window { cols, rows }
    }
}

/// Appends the column and row tables of a 2-D input of `shape` for
/// `win` and returns their starts, plus whether both are the identity
/// on a domain of the input's own shape.
fn grid_tables(
    tables: &mut Vec<usize>,
    shape: &[usize],
    domain: (usize, usize),
    win: &Window,
) -> (usize, usize, bool) {
    let col = tables.len();
    tables.extend(win.cols.clone().map(|x| input_index((x, 0), domain, shape).0));
    let row = tables.len();
    tables.extend(win.rows.clone().map(|y| input_index((0, y), domain, shape).1));
    let identity = shape == [domain.1, domain.0]
        && tables[col..row].iter().copied().eq(win.cols.clone())
        && tables[row..].iter().copied().eq(win.rows.clone());
    (col, row, identity)
}

impl FrameScratch {
    /// Plans the framing of every elementwise and `indexof` slot for
    /// one launch over `win`. Bindings are already validated.
    fn plan(
        &mut self,
        lane: &LaneKernel,
        bindings: &[Binding<'_>],
        domain: (usize, usize),
        linear: bool,
        win: &Window,
    ) {
        self.tables.clear();
        self.fetch.clear();
        for (pi, w) in &lane.elem_params {
            let Binding::Elem { shape, .. } = &bindings[*pi as usize] else {
                unreachable!("elementwise binding validated at dispatch");
            };
            let fetch = if let [rows, cols] = shape[..] {
                let mark = self.tables.len();
                match grid_tables(&mut self.tables, shape, domain, win) {
                    (_, _, true) => {
                        self.tables.truncate(mark);
                        Fetch::Linear {
                            last: rows * cols - 1,
                        }
                    }
                    (col, row, false) => Fetch::Grid { cols, col, row },
                }
            } else {
                Fetch::Linear {
                    last: shape.iter().product::<usize>().saturating_sub(1),
                }
            };
            self.fetch.push((usize::from(*w), fetch));
        }
        self.contig.clear();
        self.contig.resize(lane.elem_params.len(), None);
        self.elem_off.clear();
        self.elem_off.resize(lane.elem_params.len(), [0; LANES]);
        self.idx.clear();
        for pi in &lane.indexof_params {
            let idx = match &bindings[*pi as usize] {
                Binding::Elem { shape, .. } if shape.len() == 2 => {
                    let (col, row, _) = grid_tables(&mut self.tables, shape, domain, win);
                    Idx::Grid { col, row }
                }
                Binding::Elem { shape, .. } => Idx::Linear {
                    last: shape.iter().product::<usize>().saturating_sub(1),
                },
                Binding::Out(_) | Binding::Scalar(_) if linear => Idx::Linear { last: usize::MAX },
                Binding::Out(_) | Binding::Scalar(_) => Idx::Xy,
                Binding::Gather { .. } => unreachable!("indexof bindings validated at dispatch"),
            };
            self.idx.push(idx);
        }
        self.idx_vals.clear();
        self.idx_vals.resize(lane.indexof_params.len(), [[0.0; 2]; LANES]);
    }

    /// Whether framing a block needs the domain position `(x, y)` of
    /// its first lane.
    fn needs_xy(&self) -> bool {
        self.fetch.iter().any(|(_, f)| matches!(f, Fetch::Grid { .. }))
            || self.idx.iter().any(|i| matches!(i, Idx::Grid { .. } | Idx::Xy))
    }
}

/// Calls `f(lane, x, y)` for the first `n` lanes of a block whose first
/// lane sits at domain position `(x, y)`, stepping the position without
/// division.
#[inline(always)]
fn for_each_xy(n: usize, (mut x, mut y): (usize, usize), dx: usize, mut f: impl FnMut(usize, usize, usize)) {
    for l in 0..n {
        f(l, x, y);
        x += 1;
        if x == dx {
            x = 0;
            y += 1;
        }
    }
}

/// Runs a tier-compiled kernel over a contiguous partition of its
/// output domain — the drop-in counterpart of
/// [`crate::lanes::run_kernel_range`], bit-exact with it (and with the
/// scalar interpreter) for both results and faults. Bindings the plan
/// cannot model and faulting blocks transparently execute through the
/// lane engine, which itself falls back to the scalar interpreter.
///
/// # Errors
/// Exactly the scalar interpreter's faults, with element attribution.
pub fn run_kernel_range(
    tier: &TierKernel,
    lane: &LaneKernel,
    kernel: &IrKernel,
    bindings: &[Binding<'_>],
    outputs: &mut [&mut [f32]],
    domain_shape: &[usize],
    range: Range<usize>,
) -> Result<(), ExecError> {
    let mut slabs = LaneSlabs::new();
    run_kernel_range_in(
        &mut slabs,
        tier,
        lane,
        kernel,
        bindings,
        outputs,
        domain_shape,
        range,
    )
}

/// [`run_kernel_range`] with caller-owned slab storage: the serial
/// backend keeps one [`LaneSlabs`] across launches and the parallel
/// backend one per worker, so the slab arenas and every per-launch
/// framing table are reused instead of allocated.
///
/// Framing a 16-lane block costs O(1) per element stream: a 1-D-shaped
/// input's element is `min(p, len − 1)` for domain position `p`, and a
/// 2-D input reads per-launch column and row tables while `(x, y)`
/// steps from the block's base. A width-1 stream whose full block reads
/// 16 consecutive in-range elements is *contiguous*: its fetch sites
/// copy a slice instead of walking an offset table. Width-1 outputs
/// stage back (and preload) as slice copies.
///
/// # Errors
/// Exactly the scalar interpreter's faults, with element attribution.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
pub fn run_kernel_range_in(
    slabs: &mut LaneSlabs,
    tier: &TierKernel,
    lane: &LaneKernel,
    kernel: &IrKernel,
    bindings: &[Binding<'_>],
    outputs: &mut [&mut [f32]],
    domain_shape: &[usize],
    range: Range<usize>,
) -> Result<(), ExecError> {
    let (dx, dy, linear) = domain_extents(domain_shape);
    debug_assert!(range.end <= dx * dy, "domain range exceeds the domain");
    // Binding validation mirrors the lane engine; anything unexpected
    // runs the whole range through the lane engine, which owns the
    // fallback surface from there.
    macro_rules! lane_fallback {
        () => {
            return lanes::run_kernel_range_in(slabs, lane, kernel, bindings, outputs, domain_shape, range)
        };
    }
    let sc = &mut slabs.tier;
    sc.out_buf.clear();
    for (slot, _) in kernel.output_params() {
        match &bindings[kernel.outputs[slot as usize] as usize] {
            Binding::Out(i) => sc.out_buf.push(*i),
            _ => lane_fallback!(),
        }
    }
    for (pi, w) in &lane.elem_params {
        match &bindings[*pi as usize] {
            Binding::Elem { width, .. } if width == w => {}
            _ => lane_fallback!(),
        }
    }
    sc.scalar_f.clear();
    sc.scalar_f.resize(lane.scalar_params.len(), [0.0; 4]);
    sc.scalar_i.clear();
    sc.scalar_i.resize(lane.scalar_params.len(), 0);
    for (slot, (pi, ty)) in lane.scalar_params.iter().enumerate() {
        match &bindings[*pi as usize] {
            Binding::Scalar(v) if LaneTy::of_value(v) == *ty => match v {
                Value::Int(x) => sc.scalar_i[slot] = *x,
                other => {
                    sc.scalar_f[slot][..other.lanes().len()].copy_from_slice(other.lanes());
                }
            },
            _ => lane_fallback!(),
        }
    }
    for (pi, w) in &lane.gather_params {
        match &bindings[*pi as usize] {
            Binding::Gather { width, .. } if width == w => {}
            _ => lane_fallback!(),
        }
    }
    for pi in &lane.indexof_params {
        if matches!(&bindings[*pi as usize], Binding::Gather { .. }) {
            lane_fallback!();
        }
    }
    if range.is_empty() {
        return Ok(());
    }
    let win = Window::of(&range, dx);
    sc.plan(lane, bindings, (dx, dy), linear, &win);
    let needs_xy = sc.needs_xy();
    slabs.prepare(lane);
    let LaneSlabs { f, i, b, tier: sc } = slabs;
    let FrameScratch {
        out_buf,
        scalar_f,
        scalar_i,
        fetch,
        contig,
        elem_off,
        idx,
        idx_vals,
        tables,
    } = sc;
    let mut fr = Frame {
        bindings,
        elem_params: &lane.elem_params,
        f: f.as_mut_slice(),
        i: i.as_mut_slice(),
        b,
        m: FULL,
        dead: 0,
        iters: [0; LANES],
        contig,
        elem_off,
        scalar_f,
        scalar_i,
        idx_vals,
        comp_max: crate::eval::indexof_comp_max((dx, dy), linear),
    };
    // The uniform prologue: hoisted dispatch-invariant steps, once,
    // at full mask (every lane of every block reads the same value).
    for s in &tier.prologue {
        s(&mut fr);
    }
    let (cx, ry) = (win.cols.start, win.rows.start);
    let mut base = range.start;
    while base < range.end {
        let n = (range.end - base).min(LANES);
        let mask: Mask = if n == LANES { FULL } else { (1u32 << n) - 1 };
        fr.dead = 0;
        fr.iters = [0; LANES];
        let xy = if needs_xy { (base % dx, base / dx) } else { (0, 0) };
        for (si, &(width, plan)) in fetch.iter().enumerate() {
            let off = &mut fr.elem_off[si];
            fr.contig[si] = match plan {
                Fetch::Linear { last } if width == 1 && n == LANES && base + LANES - 1 <= last => Some(base),
                Fetch::Linear { last } => {
                    for (l, o) in off[..n].iter_mut().enumerate() {
                        *o = (base + l).min(last) * width;
                    }
                    None
                }
                Fetch::Grid { cols, col, row } => {
                    for_each_xy(n, xy, dx, |l, x, y| {
                        off[l] = (tables[row + y - ry] * cols + tables[col + x - cx]) * width;
                    });
                    None
                }
            };
        }
        for (si, plan) in idx.iter().enumerate() {
            let v = &mut fr.idx_vals[si];
            match *plan {
                Idx::Linear { last } => {
                    for (l, e) in v[..n].iter_mut().enumerate() {
                        *e = [(base + l).min(last) as f32, 0.0];
                    }
                }
                Idx::Xy => for_each_xy(n, xy, dx, |l, x, y| v[l] = [x as f32, y as f32]),
                Idx::Grid { col, row } => for_each_xy(n, xy, dx, |l, x, y| {
                    v[l] = [tables[col + x - cx] as f32, tables[row + y - ry] as f32];
                }),
            }
        }
        let start = base - range.start;
        for (slot, bi) in out_buf.iter().enumerate() {
            if !lane.out_preload[slot] {
                continue;
            }
            let w = lane.out_w[slot] as usize;
            let off = lane.out_off[slot] as usize;
            let buf = &outputs[*bi];
            if w == 1 {
                fr.f[off..off + n].copy_from_slice(&buf[start..start + n]);
                continue;
            }
            for l in 0..n {
                let src = (start + l) * w;
                for c in 0..w {
                    fr.f[off + c * LANES + l] = buf[src + c];
                }
            }
        }
        match exec_chain(&mut fr, &tier.chain, mask) {
            Ok(()) => {
                for (slot, bi) in out_buf.iter().enumerate() {
                    let w = lane.out_w[slot] as usize;
                    let off = lane.out_off[slot] as usize;
                    let buf = &mut outputs[*bi];
                    if w == 1 {
                        buf[start..start + n].copy_from_slice(&fr.f[off..off + n]);
                        continue;
                    }
                    for l in 0..n {
                        let dst = (start + l) * w;
                        for c in 0..w {
                            buf[dst + c] = fr.f[off + c * LANES + l];
                        }
                    }
                }
            }
            Err(BailOut) => {
                // Re-run exactly this block through the lane engine:
                // it reproduces the scalar path's partial writes, fault
                // choice, element attribution and span verbatim (its
                // own bail re-runs the block scalar). No staged tier
                // write has touched the real buffers.
                let mut slices: Vec<&mut [f32]> = Vec::with_capacity(outputs.len());
                for (bi, out) in outputs.iter_mut().enumerate() {
                    match out_buf.iter().position(|o| *o == bi) {
                        Some(slot) => {
                            let w = lane.out_w[slot] as usize;
                            slices.push(&mut out[start * w..(start + n) * w]);
                        }
                        None => slices.push(&mut out[0..0]),
                    }
                }
                lanes::run_kernel_range(lane, kernel, bindings, &mut slices, domain_shape, base..base + n)?;
            }
        }
        base += n;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::plan_with;
    use crate::lower::lower_kernel;
    use crate::ParamKind;
    use brook_lang::parse_and_check;

    fn lower_src(src: &str) -> IrKernel {
        let checked = parse_and_check(src).expect("front-end");
        let kdef = checked.program.kernels().next().expect("kernel");
        lower_kernel(&checked, kdef).expect("lower")
    }

    fn tier_of(kernel: &IrKernel) -> (LaneKernel, TierKernel) {
        let lane = plan_with(kernel, None).expect("lane plan");
        let tier = compile_simd(&lane, kernel, None, simd::auto()).expect("tier compile");
        (lane, tier)
    }

    /// The results of one launch on the scalar interpreter, the lane
    /// engine and Tier-2.
    type Three = (
        Result<Vec<f32>, ExecError>,
        Result<Vec<f32>, ExecError>,
        Result<Vec<f32>, ExecError>,
    );

    /// Runs a 1-input/1-output kernel over a 1-D domain on the scalar
    /// interpreter, the lane engine and Tier-2 and returns all three.
    fn run_three(kernel: &IrKernel, input: &[f32], n: usize) -> Three {
        run_three_with(kernel, input, n, &[])
    }

    /// [`run_three`] for a kernel with scalar params too, bound to
    /// `scalars` in declaration order.
    fn run_three_with(kernel: &IrKernel, input: &[f32], n: usize, scalars: &[Value]) -> Three {
        let (lane, tier) = tier_of(kernel);
        let shape = [n];
        let run = |engine: u8| -> Result<Vec<f32>, ExecError> {
            let mut bindings = Vec::new();
            let mut n_outs = 0usize;
            let mut next_scalar = scalars.iter();
            for p in &kernel.params {
                match p.kind {
                    ParamKind::Stream => bindings.push(Binding::Elem {
                        data: input,
                        shape: &shape,
                        width: 1,
                    }),
                    ParamKind::OutStream => {
                        bindings.push(Binding::Out(n_outs));
                        n_outs += 1;
                    }
                    ParamKind::Scalar => {
                        bindings.push(Binding::Scalar(*next_scalar.next().expect("a scalar value")));
                    }
                    _ => panic!("run_three binds stream and scalar params only"),
                }
            }
            let mut buf = vec![0.0f32; n];
            {
                let mut outs: Vec<&mut [f32]> = vec![&mut buf];
                match engine {
                    0 => crate::interp::run_kernel_range(kernel, &bindings, &mut outs, &shape, 0..n)?,
                    1 => lanes::run_kernel_range(&lane, kernel, &bindings, &mut outs, &shape, 0..n)?,
                    _ => run_kernel_range(&tier, &lane, kernel, &bindings, &mut outs, &shape, 0..n)?,
                }
            }
            Ok(buf)
        };
        (run(0), run(1), run(2))
    }

    fn assert_bit_exact(src: &str, input_of: impl Fn(usize) -> f32, sizes: &[usize]) {
        let k = lower_src(src);
        for &n in sizes {
            let input: Vec<f32> = (0..n).map(&input_of).collect();
            let (scalar, lanes, tier) = run_three(&k, &input, n);
            let scalar = scalar.expect("scalar");
            let lanes = lanes.expect("lanes");
            let tier = tier.expect("tier");
            for i in 0..n {
                assert_eq!(
                    scalar[i].to_bits(),
                    tier[i].to_bits(),
                    "n={n} element {i}: scalar {} vs tier {}\n{src}",
                    scalar[i],
                    tier[i]
                );
                assert_eq!(
                    lanes[i].to_bits(),
                    tier[i].to_bits(),
                    "n={n} element {i} vs lanes"
                );
            }
        }
    }

    #[test]
    fn straight_line_matches_scalar_at_every_remainder() {
        assert_bit_exact(
            "kernel void f(float a<>, out float o<>) { o = a * 2.5 + sin(a) - sqrt(abs(a)); }",
            |i| i as f32 * 0.37 - 3.0,
            &[1, LANES - 1, LANES, LANES + 1, 2 * LANES + 1, 97],
        );
    }

    #[test]
    fn divergent_branch_and_loop_match_scalar() {
        assert_bit_exact(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                int i;
                for (i = 0; i < 12; i++) {
                    if (s < a) { s += 1.5; } else { s -= 0.25; }
                }
                if (a > 4.0) { o = s * 2.0; return; }
                o = s;
            }",
            |i| (i as f32 * 1.7) % 9.0,
            &[LANES, 2 * LANES + 1, 61],
        );
    }

    #[test]
    fn data_dependent_while_loop_matches_scalar() {
        assert_bit_exact(
            "kernel void f(float a<>, out float o<>) {
                float s = a;
                while (s < 20.0) { s = s * 1.5 + 1.0; }
                o = s;
            }",
            |i| (i % 19) as f32,
            &[LANES, 2 * LANES + 1],
        );
    }

    #[test]
    fn ternary_select_matches_scalar() {
        assert_bit_exact(
            "kernel void f(float a<>, out float o<>) { o = a > 2.0 ? a * 3.0 : a - 1.0; }",
            |i| i as f32 * 0.5,
            &[1, LANES, LANES + 1, 2 * LANES + 1],
        );
    }

    #[test]
    fn int_arithmetic_and_casts_match_scalar() {
        assert_bit_exact(
            "kernel void f(float a<>, out float o<>) {
                int i = int(a);
                int j = i * 3 - 7;
                int k = j / (i + 2) + j % 5;
                o = float(k) + a;
            }",
            |i| i as f32 * 0.9 - 4.0,
            &[LANES, 2 * LANES + 1],
        );
    }

    #[test]
    fn compound_output_writes_match_scalar() {
        assert_bit_exact(
            "kernel void f(float a<>, out float o<>) { o = a; o += 2.0; o *= a + 1.0; }",
            |i| i as f32 * 0.21,
            &[LANES - 1, LANES, 2 * LANES + 1],
        );
    }

    #[test]
    fn vectors_and_swizzles_match_scalar() {
        // No dot/length/normalize — those are tier-rejected; this stays
        // on the vector copy/splat/arith surface the closures cover.
        assert_bit_exact(
            "kernel void f(float a<>, out float o<>) {
                float4 v = float4(a, a + 1.0, a * 2.0, 4.0);
                v.xy += float2(0.5, 0.25);
                float c = clamp(a, 0.25, 3.5) + lerp(1.0, 2.0, fract(a));
                o = v.x + v.y * 10.0 + v.z * 100.0 + v.w + c;
            }",
            |i| i as f32 * 0.61 - 2.0,
            &[LANES, LANES + 1, 53],
        );
    }

    #[test]
    fn superword_pass_fuses_mul_add_chains() {
        let k = lower_src("kernel void f(float a<>, out float o<>) { o = a * 2.5 + 1.25; }");
        let (_, tier) = tier_of(&k);
        assert!(tier.fused_pairs() >= 1, "expected fusion, got {tier:?}");
        assert!(tier.detail().contains("fused"), "{}", tier.detail());
    }

    #[test]
    fn uniform_scalar_subchain_is_hoisted_and_bit_exact() {
        // `k * 2.0 + 1.0` depends only on the scalar parameter: it must
        // move to the once-per-dispatch prologue and still match the
        // scalar interpreter bitwise.
        let k = lower_src("kernel void f(float a<>, float k, out float o<>) { o = a + (k * 2.0 + 1.0); }");
        let (lane, tier) = tier_of(&k);
        assert!(tier.hoisted_uniform() >= 1, "expected hoisting, got {tier:?}");
        let n = 2 * LANES + 3;
        let input: Vec<f32> = (0..n).map(|i| i as f32 * 0.3).collect();
        let shape = [n];
        let bindings = vec![
            Binding::Elem {
                data: &input,
                shape: &shape,
                width: 1,
            },
            Binding::Scalar(Value::Float(1.75)),
            Binding::Out(0),
        ];
        let mut sbuf = vec![0.0f32; n];
        let mut tbuf = vec![0.0f32; n];
        {
            let mut outs: Vec<&mut [f32]> = vec![&mut sbuf];
            crate::interp::run_kernel_range(&k, &bindings, &mut outs, &shape, 0..n).expect("scalar");
        }
        {
            let mut outs: Vec<&mut [f32]> = vec![&mut tbuf];
            run_kernel_range(&tier, &lane, &k, &bindings, &mut outs, &shape, 0..n).expect("tier");
        }
        for i in 0..n {
            assert_eq!(sbuf[i].to_bits(), tbuf[i].to_bits(), "element {i}");
        }
    }

    #[test]
    fn gather_kernel_matches_scalar_bitwise() {
        let k = lower_src("kernel void f(float a<>, float t[], out float o<>) { o = t[a] * 2.0 + a; }");
        let (lane, tier) = tier_of(&k);
        let n = 2 * LANES + 5;
        let input: Vec<f32> = (0..n).map(|i| (i % 11) as f32).collect();
        let table: Vec<f32> = (0..11).map(|i| i as f32 * 1.5 - 3.0).collect();
        let shape = [n];
        let tshape = [table.len()];
        let bindings = vec![
            Binding::Elem {
                data: &input,
                shape: &shape,
                width: 1,
            },
            Binding::Gather {
                data: &table,
                shape: &tshape,
                width: 1,
            },
            Binding::Out(0),
        ];
        let mut sbuf = vec![0.0f32; n];
        let mut tbuf = vec![0.0f32; n];
        {
            let mut outs: Vec<&mut [f32]> = vec![&mut sbuf];
            crate::interp::run_kernel_range(&k, &bindings, &mut outs, &shape, 0..n).expect("scalar");
        }
        {
            let mut outs: Vec<&mut [f32]> = vec![&mut tbuf];
            run_kernel_range(&tier, &lane, &k, &bindings, &mut outs, &shape, 0..n).expect("tier");
        }
        for i in 0..n {
            assert_eq!(sbuf[i].to_bits(), tbuf[i].to_bits(), "element {i}");
        }
    }

    #[test]
    fn empty_range_is_a_no_op() {
        let k = lower_src("kernel void f(float a<>, out float o<>) { o = a; }");
        let (lane, tier) = tier_of(&k);
        let shape = [4usize];
        let bindings = vec![
            Binding::Elem {
                data: &[1.0, 2.0, 3.0, 4.0],
                shape: &shape,
                width: 1,
            },
            Binding::Out(0),
        ];
        let mut buf = vec![7.0f32; 0];
        let mut outs: Vec<&mut [f32]> = vec![&mut buf];
        run_kernel_range(&tier, &lane, &k, &bindings, &mut outs, &shape, 0..0).expect("empty range");
    }

    /// Shared driver for the fault-provenance matrix: runs the budget
    /// fault with the bad element at `bad` of `n` and asserts the tier
    /// fault is the scalar and lane fault verbatim.
    fn assert_budget_fault_verbatim(n: usize, bad: usize) {
        let src = "kernel void f(float a<>, out float o<>) {\n    float s = a;\n    while (s > 0.5) { s = s + 0.0; }\n    o = s;\n}";
        assert_budget_fault_verbatim_in(src, 3, n, bad);
    }

    /// [`assert_budget_fault_verbatim`] for any kernel `src` that
    /// exhausts the budget on the elements whose input is 1.0, with the
    /// fault raised on source line `line`.
    fn assert_budget_fault_verbatim_in(src: &str, line: u32, n: usize, bad: usize) {
        let k = lower_src(src);
        let input: Vec<f32> = (0..n).map(|i| if i == bad { 1.0 } else { 0.0 }).collect();
        let (scalar, lanes, tier) = run_three(&k, &input, n);
        let se = scalar.expect_err("scalar faults");
        let le = lanes.expect_err("lanes fault");
        let te = tier.expect_err("tier fault");
        assert_eq!(
            se, te,
            "tier fault must be the scalar fault verbatim (n={n} bad={bad})"
        );
        assert_eq!(
            le, te,
            "tier fault must be the lane fault verbatim (n={n} bad={bad})"
        );
        assert_eq!(te.element, Some(bad));
        assert_eq!(te.span.line, line);
        assert!(te.render().contains(&format!("element {bad}")), "{}", te.render());
    }

    #[test]
    fn budget_fault_in_first_lane_matches_scalar_exactly() {
        assert_budget_fault_verbatim(LANES + 7, 0);
    }

    #[test]
    fn budget_fault_in_last_lane_matches_scalar_exactly() {
        assert_budget_fault_verbatim(LANES + 7, LANES + 6);
    }

    #[test]
    fn budget_fault_in_lone_lane_matches_scalar_exactly() {
        assert_budget_fault_verbatim(1, 0);
    }

    #[test]
    fn budget_fault_mid_block_matches_scalar_exactly() {
        assert_budget_fault_verbatim(LANES + 7, LANES + 3);
    }

    #[test]
    fn fault_in_block_preserves_scalar_partial_writes() {
        let src = "kernel void f(float a<>, out float o<>) {
            o = a * 2.0;
            float s = a;
            while (s > 0.5) { s = s + 0.0; }
        }";
        let k = lower_src(src);
        let (lane, tier) = tier_of(&k);
        let n = LANES;
        let bad = 5;
        let input: Vec<f32> = (0..n)
            .map(|i| if i == bad { 1.0 } else { 0.1 * i as f32 })
            .collect();
        let shape = [n];
        let run = |use_tier: bool| -> (Vec<f32>, ExecError) {
            let bindings = vec![
                Binding::Elem {
                    data: &input,
                    shape: &shape,
                    width: 1,
                },
                Binding::Out(0),
            ];
            let mut buf = vec![0.0f32; n];
            let err = {
                let mut outs: Vec<&mut [f32]> = vec![&mut buf];
                if use_tier {
                    run_kernel_range(&tier, &lane, &k, &bindings, &mut outs, &shape, 0..n).expect_err("fault")
                } else {
                    crate::interp::run_kernel_range(&k, &bindings, &mut outs, &shape, 0..n)
                        .expect_err("fault")
                }
            };
            (buf, err)
        };
        let (sbuf, serr) = run(false);
        let (tbuf, terr) = run(true);
        assert_eq!(serr, terr);
        assert_eq!(sbuf, tbuf, "partial writes must match the scalar path");
        assert_eq!(serr.element, Some(bad));
    }

    /// One bound input stream of the framing tests: data, shape, width.
    type Input = (Vec<f32>, Vec<usize>, u8);

    fn ramp(len: usize, width: u8) -> Vec<f32> {
        (0..len * usize::from(width))
            .map(|i| i as f32 * 0.75 - 11.0)
            .collect()
    }

    /// Runs `src` over each of `ranges` of `domain` — its stream params
    /// bound to `inputs` in order, its outputs to fresh buffers — on the
    /// scalar interpreter and on Tier-2 at the scalar and the host SIMD
    /// level, all Tier-2 runs sharing one slab frame, and asserts
    /// bit-identical results, partial writes and faults. Returns the
    /// slab frame so callers can check how the last launch was framed.
    fn assert_framing_matches_scalar(
        src: &str,
        inputs: &[Input],
        domain: &[usize],
        ranges: &[Range<usize>],
    ) -> LaneSlabs {
        let k = lower_src(src);
        let lane = plan_with(&k, None).expect("lane plan");
        let tiers: Vec<TierKernel> = [SimdLevel::Scalar, simd::auto()]
            .into_iter()
            .map(|level| compile_simd(&lane, &k, None, level).expect("tier compile"))
            .collect();
        let mut next_input = inputs.iter();
        let mut out_w = Vec::new();
        let bindings: Vec<Binding<'_>> = k
            .params
            .iter()
            .map(|p| match p.kind {
                ParamKind::Stream => {
                    let (data, shape, width) = next_input.next().expect("an input per stream param");
                    Binding::Elem {
                        data,
                        shape,
                        width: *width,
                    }
                }
                ParamKind::OutStream => {
                    out_w.push(usize::from(p.ty.width));
                    Binding::Out(out_w.len() - 1)
                }
                _ => panic!("the framing tests bind streams only"),
            })
            .collect();
        let mut slabs = LaneSlabs::new();
        for range in ranges {
            let mut run = |tier: Option<&TierKernel>| {
                let mut bufs: Vec<Vec<f32>> = out_w.iter().map(|w| vec![-1.0; range.len() * w]).collect();
                let mut outs: Vec<&mut [f32]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
                let r = match tier {
                    None => crate::interp::run_kernel_range(&k, &bindings, &mut outs, domain, range.clone()),
                    Some(t) => run_kernel_range_in(
                        &mut slabs,
                        t,
                        &lane,
                        &k,
                        &bindings,
                        &mut outs,
                        domain,
                        range.clone(),
                    ),
                };
                let bits: Vec<Vec<u32>> = bufs
                    .iter()
                    .map(|b| b.iter().map(|x| x.to_bits()).collect())
                    .collect();
                (bits, r)
            };
            let want = run(None);
            for t in &tiers {
                assert_eq!(
                    run(Some(t)),
                    want,
                    "{:?} over {range:?} of {domain:?}\n{src}",
                    t.level
                );
            }
        }
        slabs
    }

    const TWO_INPUTS: &str = "kernel void f(float a<>, float b<>, out float o<>) { o = a * 2.0 + b; }";

    #[test]
    fn contiguous_clamped_and_longer_1d_inputs_match_scalar() {
        let n = 3 * LANES + 5;
        for b_len in [1, LANES + 3, n - 1, n, n + 9] {
            let inputs = [(ramp(n, 1), vec![n], 1), (ramp(b_len, 1), vec![b_len], 1)];
            assert_framing_matches_scalar(TWO_INPUTS, &inputs, &[n], &[0..n, 7..n, LANES..2 * LANES + 1]);
        }
    }

    #[test]
    fn full_in_range_blocks_are_framed_contiguous() {
        let n = 3 * LANES;
        let inputs = [(ramp(n, 1), vec![n], 1), (ramp(n - 1, 1), vec![n - 1], 1)];
        let slabs = assert_framing_matches_scalar(TWO_INPUTS, &inputs, &[n], &[5..n, 0..n]);
        // The last block: `a` covers it, `b` is one element short.
        assert_eq!(slabs.tier.contig, [Some(2 * LANES), None]);
        // A same-shaped 2-D input frames like a 1-D one.
        let inputs = [(ramp(48, 1), vec![6, 8], 1), (ramp(48, 1), vec![8, 6], 1)];
        let slabs = assert_framing_matches_scalar(TWO_INPUTS, &inputs, &[6, 8], &[11..48, 0..48]);
        assert!(matches!(slabs.tier.fetch[0], (1, Fetch::Linear { last: 47 })));
        assert!(matches!(slabs.tier.fetch[1], (1, Fetch::Grid { .. })));
        assert_eq!(slabs.tier.contig, [Some(2 * LANES), None]);
    }

    #[test]
    fn resampled_2d_and_1d_on_2d_inputs_match_scalar() {
        let domain = [7, 24];
        let ranges = [0..168, 5..37, LANES..5 * LANES, 30..31, 150..168];
        for (a_shape, b_shape) in [
            (vec![7, 24], vec![3, 5]),
            (vec![14, 48], vec![7, 11]),
            (vec![60], vec![200]),
            (vec![1, 1], vec![9]),
        ] {
            let inputs = [
                (ramp(a_shape.iter().product(), 1), a_shape, 1),
                (ramp(b_shape.iter().product(), 1), b_shape, 1),
            ];
            assert_framing_matches_scalar(TWO_INPUTS, &inputs, &domain, &ranges);
        }
        // A 2-D input on a 1-D domain.
        let inputs = [(ramp(50, 1), vec![50], 1), (ramp(12, 1), vec![3, 4], 1)];
        assert_framing_matches_scalar(TWO_INPUTS, &inputs, &[50], &[0..50, 9..41]);
    }

    #[test]
    fn width_2_and_4_inputs_and_outputs_match_scalar() {
        let src = "kernel void f(float2 a<>, float4 c<>, out float2 o<>, out float p<>) {
            o = a * 2.0 + c.zw;
            p = a.x - a.y * c.x + c.w;
        }";
        for (a_shape, c_shape) in [
            (vec![40], vec![40]),
            (vec![17], vec![63]),
            (vec![5, 8], vec![2, 3]),
        ] {
            let inputs = [
                (ramp(a_shape.iter().product(), 2), a_shape, 2),
                (ramp(c_shape.iter().product(), 4), c_shape, 4),
            ];
            assert_framing_matches_scalar(src, &inputs, &[40], &[0..40, 3..35]);
            assert_framing_matches_scalar(src, &inputs, &[5, 8], &[0..40, 11..29]);
        }
    }

    #[test]
    fn indexof_on_1d_and_2d_domains_matches_scalar() {
        let src = "kernel void f(float a<>, out float o<>) {
            float2 i = indexof(a);
            float2 j = indexof(o);
            o = i.x + i.y * 1000.0 + j.x * 0.5 + j.y * 0.25 + a;
        }";
        for (domain, a_shape) in [
            (vec![53], vec![53]),
            (vec![53], vec![20]),
            (vec![53], vec![4, 9]),
            (vec![6, 9], vec![6, 9]),
            (vec![6, 9], vec![13, 2]),
            (vec![6, 9], vec![31]),
        ] {
            let len: usize = domain.iter().product();
            let inputs = [(ramp(a_shape.iter().product(), 1), a_shape, 1)];
            assert_framing_matches_scalar(src, &inputs, &domain, &[0..len, 4..len - 3, LANES..2 * LANES]);
        }
    }

    #[test]
    fn bailing_block_on_contiguous_launch_keeps_partial_writes_and_attribution() {
        let src = "kernel void f(float a<>, out float o<>) {
            o = a * 2.0;
            float s = a;
            while (s > 0.5) { s = s + 0.0; }
            o = s;
        }";
        let n = 4 * LANES;
        let bad = 2 * LANES + 5;
        let input: Vec<f32> = (0..n)
            .map(|i| if i == bad { 1.0 } else { 0.01 * i as f32 })
            .collect();
        let inputs = [(input, vec![n], 1)];
        let slabs = assert_framing_matches_scalar(src, &inputs, &[n], &[0..n, 5..n, LANES..3 * LANES]);
        // The faulting block was framed contiguous before it bailed.
        assert_eq!(slabs.tier.contig, [Some(2 * LANES)]);
        let k = lower_src(src);
        let lane = plan_with(&k, None).expect("lane plan");
        let tier = compile_simd(&lane, &k, None, simd::auto()).expect("tier compile");
        let bindings = [
            Binding::Elem {
                data: &inputs[0].0,
                shape: &[n],
                width: 1,
            },
            Binding::Out(0),
        ];
        let mut buf = vec![-1.0f32; n];
        let err =
            run_kernel_range(&tier, &lane, &k, &bindings, &mut [&mut buf], &[n], 0..n).expect_err("fault");
        assert_eq!(err.element, Some(bad));
        assert_eq!(err.span.line, 4);
        // Blocks before the fault are stored, the faulting block keeps
        // the scalar path's partial writes, later blocks stay untouched.
        assert_eq!(buf[bad - 1].to_bits(), inputs[0].0[bad - 1].to_bits());
        assert_eq!(buf[bad], 2.0);
        assert_eq!(buf[3 * LANES], -1.0);
    }

    #[test]
    fn tier_rejects_reductions_and_lane_rejects_propagate() {
        let checked = parse_and_check(
            "kernel void ok(float a<>, out float o<>) { o = a + 1.0; }
             kernel void dotted(float a<>, out float o<>) {
                 float2 v = float2(a, a * 0.5);
                 o = dot(v, v) + 1.0;
             }
             reduce void sum(float a<>, reduce float r<>) { r += a; }",
        )
        .expect("front-end");
        let (ir, errs) = crate::lower::lower_program(&checked);
        assert!(errs.is_empty());
        let lanes = LaneProgram::plan_program_with(&ir, &[]);
        let tiers = TierProgram::compile_program_simd(&ir, &lanes, &[], simd::auto());
        assert!(tiers.kernel("ok").is_some());
        assert_eq!(tiers.decision("ok"), Some(Ok(())));
        // Lane-admitted but tier-rejected: the lane engine stays in
        // charge and the report says why.
        assert!(lanes.kernel("dotted").is_some());
        assert!(tiers.kernel("dotted").is_none());
        match tiers.decision("dotted") {
            Some(Err(e)) => assert!(e.contains("reduction"), "{e}"),
            other => panic!("expected tier rejection, got {other:?}"),
        }
        // Lane-rejected: tier records the upstream rejection.
        match tiers.decision("sum") {
            Some(Err(e)) => assert!(e.contains("lane planner"), "{e}"),
            other => panic!("expected propagated rejection, got {other:?}"),
        }
    }

    /// Every tail remainder of a [`LANES`]-element block, plus a lone
    /// element and a multi-block launch.
    fn every_remainder() -> Vec<usize> {
        let mut sizes: Vec<usize> = (LANES + 1..=2 * LANES).collect();
        sizes.extend([1, 3 * LANES + 5]);
        sizes
    }

    /// Asserts `src` compiles to `counted` counted loops of which
    /// `quiescent` take the quiescent exit, and runs bit-exact against
    /// the scalar interpreter and the lane engine at every remainder.
    fn assert_counted(src: &str, counted: usize, quiescent: usize, input_of: impl Fn(usize) -> f32) {
        let (_, tier) = tier_of(&lower_src(src));
        assert_eq!(
            (tier.counted, tier.quiescent),
            (counted, quiescent),
            "{}\n{src}",
            tier.detail()
        );
        assert_bit_exact(src, input_of, &every_remainder());
    }

    /// Inputs spread so that lanes of one block leave a guarded loop at
    /// different iterations, some at once and some never.
    fn spread(i: usize) -> f32 {
        (i * 7 % 23) as f32 * 0.5 - 1.0
    }

    #[test]
    fn escape_time_loop_takes_the_quiescent_exit() {
        assert_counted(
            "kernel void f(float a<>, out float o<>) {
                float z = 0.0;
                float count = 0.0;
                int i;
                for (i = 0; i < 40; i++) {
                    float m = z * z;
                    if (m < a) { z = z * 0.5 + 1.25; count += 1.0; }
                }
                o = count + z;
            }",
            1,
            1,
            spread,
        );
    }

    #[test]
    fn counter_read_in_the_body_matches_scalar() {
        // Unguarded: the increment runs every iteration.
        assert_counted(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                int i;
                for (i = 0; i < 10; i++) { s += float(i) * a; }
                o = s;
            }",
            1,
            0,
            spread,
        );
        // Read only inside the guarded `then`: still quiescent.
        assert_counted(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                int i;
                for (i = 0; i < 30; i++) {
                    if (s < a) { s += float(i) * 0.25 + 0.5; }
                }
                o = s;
            }",
            1,
            1,
            spread,
        );
    }

    #[test]
    fn counter_read_after_the_loop_matches_scalar() {
        assert_counted(
            "kernel void f(float a<>, out float o<>) {
                float s = a;
                int i;
                for (i = 0; i < 7; i++) { s = s * 0.5 + a; }
                float t = 0.0;
                for (i = 2; i < 19; i++) { if (t < a) { t += 1.0; } }
                o = s + t * 100.0 + float(i) * 1000.0;
            }",
            2,
            1,
            spread,
        );
    }

    #[test]
    fn counter_read_in_the_guard_is_not_quiescent() {
        assert_counted(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                int i;
                for (i = 0; i < 12; i++) {
                    if (float(i) < a) { s += 1.0; }
                }
                o = s;
            }",
            1,
            0,
            spread,
        );
    }

    #[test]
    fn zero_trip_loop_leaves_the_counter_at_its_start() {
        assert_counted(
            "kernel void f(float a<>, out float o<>) {
                float s = a;
                int i;
                for (i = 5; i < 3; i++) { if (s < 9.0) { s += 1.0; } }
                o = s + float(i);
            }",
            1,
            1,
            spread,
        );
    }

    #[test]
    fn stride_not_dividing_the_bound_matches_scalar() {
        assert_counted(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                float g = 0.0;
                int i;
                for (i = 1; i < 20; i += 3) { s += a * float(i); }
                for (i = 0; i < 20; i += 3) { if (g < a) { g += 0.75; } }
                o = s + g * 100.0 + float(i) * 1000.0;
            }",
            2,
            1,
            spread,
        );
    }

    #[test]
    fn counter_differing_between_lanes_takes_the_generic_path() {
        // Unchecked mode only: each lane starts its counter at its own
        // value, so no one trip count fits the block.
        assert_counted(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                int i;
                for (i = int(a); i < 12; i++) { s += 1.0; }
                o = s + float(i) * 100.0;
            }",
            1,
            0,
            spread,
        );
    }

    #[test]
    fn uniform_scalar_bounds_and_steps_match_scalar() {
        let k = lower_src(
            "kernel void f(float a<>, int lo, int n, int c, out float o<>) {
                float s = 0.0;
                int i;
                for (i = lo; i < n; i += c) { if (s < a) { s += 0.5; } }
                o = s + float(i);
            }",
        );
        let (_, tier) = tier_of(&k);
        assert_eq!((tier.counted, tier.quiescent), (1, 1), "{}", tier.detail());
        let n = 2 * LANES + 3;
        let input: Vec<f32> = (0..n).map(spread).collect();
        // Empty, short, strided and negative ranges; a zero step runs
        // the generic path and the others the counted one.
        for (lo, hi, c) in [
            (0, 0, 1),
            (4, 2, 1),
            (-7, 30, 4),
            (0, 9, 9),
            (i32::MIN, i32::MIN + 5, 2),
            (3, 3, 0),
        ] {
            let scalars = [Value::Int(lo), Value::Int(hi), Value::Int(c)];
            let (scalar, lanes, tier) = run_three_with(&k, &input, n, &scalars);
            let want: Vec<u32> = scalar.expect("scalar").iter().map(|x| x.to_bits()).collect();
            let bits = |r: Result<Vec<f32>, ExecError>| -> Vec<u32> {
                r.expect("run").iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(lanes), want, "lanes, lo={lo} n={hi} c={c}");
            assert_eq!(bits(tier), want, "tier, lo={lo} n={hi} c={c}");
        }
    }

    #[test]
    fn counter_overflowing_i32_faults_like_scalar() {
        // `k0 + trip·c` exceeds `i32::MAX`: the counter wraps on the
        // scalar path and never reaches the bound, so every engine must
        // report the same budget fault instead of a 3-iteration loop.
        let k = lower_src(
            "kernel void f(float a<>, int lo, out float o<>) {
                float s = a;
                int i;
                for (i = lo; i < 2147483647; i += 4) { s += 1.0; }
                o = s;
            }",
        );
        let scalars = [Value::Int(i32::MAX - 10)];
        let (scalar, lanes, tier) = run_three_with(&k, &[0.0; 3], 3, &scalars);
        let se = scalar.expect_err("scalar faults");
        assert_eq!(lanes.expect_err("lanes fault"), se);
        assert_eq!(tier.expect_err("tier faults"), se);
        assert_eq!(se.element, Some(0));
    }

    #[test]
    fn return_inside_the_guarded_then_matches_scalar() {
        assert_counted(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                o = -1.0;
                int i;
                for (i = 0; i < 25; i++) {
                    if (s < a) {
                        s += 0.75;
                        if (s > 4.0) { o = s + float(i) * 100.0; return; }
                    }
                }
                o = s + float(i) * 1000.0;
            }",
            1,
            1,
            spread,
        );
    }

    #[test]
    fn nested_counted_loops_match_scalar() {
        // Inner loop quiescent under an unguarded outer loop.
        assert_counted(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                int i;
                int j;
                for (i = 0; i < 5; i++) {
                    for (j = 0; j < 4; j++) {
                        if (s < a) { s += float(j) * 0.5 + 0.25; }
                    }
                    s += 0.125;
                }
                o = s + float(i) * 100.0 + float(j) * 1000.0;
            }",
            2,
            1,
            spread,
        );
        // Outer loop quiescent around an unguarded inner loop.
        assert_counted(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                int i;
                int j;
                for (i = 0; i < 9; i++) {
                    if (s < a) {
                        for (j = 0; j < 3; j++) { s += 0.25; }
                    }
                }
                o = s + float(i) * 100.0;
            }",
            2,
            1,
            spread,
        );
    }

    #[test]
    fn prefix_reading_a_slot_written_outside_the_then_is_not_quiescent() {
        // Written after the guard.
        assert_counted(
            "kernel void f(float a<>, out float o<>) {
                float s = 0.0;
                float c = 0.0;
                int i;
                for (i = 0; i < 16; i++) {
                    float g = s * 0.5;
                    if (g < a) { c += 1.0; }
                    s = s + 1.0;
                }
                o = c + s * 100.0;
            }",
            1,
            0,
            spread,
        );
        // Written by the prefix itself, after it was read.
        assert_counted(
            "kernel void f(float a<>, out float o<>) {
                float p = 0.0;
                float c = 0.0;
                int i;
                for (i = 0; i < 16; i++) {
                    float g = p + 1.0;
                    p = g * 0.5;
                    if (g < a) { c += 1.0; }
                }
                o = c + p * 100.0;
            }",
            1,
            0,
            spread,
        );
    }

    #[test]
    fn counted_loop_nest_budget_fault_matches_scalar_exactly() {
        // Only the elements whose input is 1.0 enter the nest, and its
        // 2049 · 2048 back edges exceed the per-element budget.
        let src = "kernel void f(float a<>, out float o<>) {\n    float s = 0.0;\n    int i;\n    int j;\n    if (a > 0.5) {\n        for (i = 0; i < 2049; i++) {\n            for (j = 0; j < 2048; j++) { if (s < 1e30) { s += 1.0; } }\n        }\n    }\n    o = s;\n}";
        let (_, tier) = tier_of(&lower_src(src));
        assert_eq!((tier.counted, tier.quiescent), (2, 1), "{}", tier.detail());
        assert_budget_fault_verbatim_in(src, 7, LANES + 7, 3);
        assert_budget_fault_verbatim_in(src, 7, LANES + 7, LANES + 6);
    }
}
